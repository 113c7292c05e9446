"""Spans and counters recorded around the package's public entry points.

The package is not edited: `instrument` rebinds module attributes (and the
names other modules imported directly) to wrappers for the length of a
`with` block, and puts the originals back on exit. A span's self time is its
duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Per-name span seconds, self seconds and counts; records only while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # one [name, seconds covered by children] per open span

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.seconds[name] += dt
            self.self_seconds[name] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def count(self, name: str, amount) -> None:
        if self.enabled:
            self.counts[name] += int(amount)


def _arguments(fn):
    """A function of (args, kwargs) giving fn's bound arguments, defaults applied."""
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _wrap(tracer: Tracer, fn, span=None, count=None):
    """Wrap fn in a span named `span`; `count(arguments)` runs first, when tracing."""
    bind = _arguments(fn) if count is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None and tracer.enabled:
            count(bind(args, kwargs))
        if span is None:
            return fn(*args, **kwargs)
        with tracer.span(span):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the entry points of every layer for the length of the block."""
    from stablesheet import cli, fieldio, fractional_kernel, geometry, lepage, synthesis

    saved = []

    def rebind(owner, attr, make, everywhere=True):
        old = getattr(owner, attr)
        new = make(old)
        owners = [owner]
        if everywhere:  # also the modules that imported the name directly
            owners += [m for key, m in sys.modules.items() if m is not owner
                       and key.startswith("stablesheet") and getattr(m, attr, None) is old]
        for o in owners:
            saved.append((o, attr, old))
            setattr(o, attr, new)

    def count(name, amount):
        return lambda arguments: tracer.count(name, amount(arguments))

    # fractional_kernel: cold tables, and psi with its quadrature fallback
    def traced_table_for(table_for):
        @functools.wraps(table_for)
        def wrapper(*args, **kwargs):
            misses = table_for.cache_info().misses
            t0 = time.perf_counter()
            with tracer.span("fractional_kernel.table_for"):
                out = table_for(*args, **kwargs)
            if tracer.enabled and table_for.cache_info().misses > misses:
                tracer.seconds["fractional_kernel.table_build"] += time.perf_counter() - t0
                tracer.count("fractional_kernel.tables_built", 1)
            return out

        wrapper.cache_info, wrapper.cache_clear = table_for.cache_info, table_for.cache_clear
        return wrapper

    rebind(fractional_kernel, "table_for", traced_table_for)
    rebind(fractional_kernel.FractionalTable, "psi", lambda fn: _wrap(
        tracer, fn, "fractional_kernel.psi",
        count("fractional_kernel.psi_points", lambda a: np.size(a["y"]))))

    def fallback_points(a):
        if tracer.inside("fractional_kernel.psi"):
            tracer.count("fractional_kernel.psi_fallback_points", np.size(a["y"]))

    rebind(fractional_kernel, "psi_v_values", lambda fn: _wrap(tracer, fn, count=fallback_points))

    # lepage: coefficient blocks (time spent inside the generator), atoms, direct sums
    def traced_blocks(blocks):
        bind = _arguments(blocks)

        @functools.wraps(blocks)
        def wrapper(*args, **kwargs):
            a = bind(args, kwargs)
            gaussian = float(a["alpha"]) == 2.0 and a["mode"] == "auto"
            name = "lepage.gauss_blocks" if gaussian else "lepage.atom_blocks"
            gen = blocks(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                tracer.count("lepage.scale_pairs", 1)
                yield item

        return wrapper

    rebind(lepage, "coefficient_blocks", traced_blocks)
    rebind(lepage, "sample_atoms", lambda fn: _wrap(
        tracer, fn, "lepage.sample_atoms", count("lepage.atoms_drawn", lambda a: a["count"])))
    rebind(lepage, "direct_field", lambda fn: _wrap(
        tracer, fn, "lepage.direct_field", count(
            "lepage.direct_terms",
            lambda a: a["atoms"].count * (1 if np.ndim(a["t"]) == 1 else np.shape(a["t"])[0]))))
    rebind(lepage, "envelope", lambda fn: _wrap(
        tracer, fn, count=count("meyer_wavelet.envelope_points", lambda a: np.size(a["xi"]))),
        everywhere=False)  # only the points lepage passes

    # synthesis and geometry
    rebind(synthesis, "synthesize", lambda fn: _wrap(tracer, fn, "synthesis.synthesize"))
    for name in ("holder_axis_exponent", "level_set", "box_count_dimension",
                 "localtime_holder_report", "estimate_stable_scale"):
        rebind(geometry, name, lambda fn, name=name: _wrap(tracer, fn, f"geometry.{name}"))

    # fieldio: spans, bytes read by read_field and file_digest, artifact bytes written
    file_size = count("fieldio.bytes_read", lambda a: os.path.getsize(a["path"]))
    rebind(fieldio, "read_field", lambda fn: _wrap(tracer, fn, "fieldio.read_field", file_size))
    rebind(fieldio, "file_digest", lambda fn: _wrap(tracer, fn, "fieldio.file_digest", file_size))
    rebind(fieldio, "write_field", lambda fn: _wrap(tracer, fn, "fieldio.write_field"))
    rebind(fieldio, "write_csv", lambda fn: _wrap(tracer, fn, "fieldio.write_csv"))
    def artifact_bytes(a):
        # Manifests are left out: they carry a wall-clock time, so their size varies.
        if tracer.inside("fieldio.write_field") or tracer.inside("fieldio.write_csv"):
            tracer.count("fieldio.bytes_written", len(a["data"]))

    rebind(fieldio, "atomic_write_bytes", lambda fn: _wrap(tracer, fn, count=artifact_bytes))

    rebind(cli, "main", lambda fn: _wrap(tracer, fn, "cli.main"))
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, by name, as (value, unit)."""
    s, own, c = tracer.seconds, tracer.self_seconds, tracer.counts
    return {
        "fractional_kernel.table_build_s": (s["fractional_kernel.table_build"], "s"),
        "fractional_kernel.tables_built": (c["fractional_kernel.tables_built"], "count"),
        "fractional_kernel.psi_eval_s": (s["fractional_kernel.psi"], "s"),
        "fractional_kernel.psi_points": (c["fractional_kernel.psi_points"], "count"),
        "fractional_kernel.psi_fallback_points": (c["fractional_kernel.psi_fallback_points"], "count"),
        "lepage.gauss_blocks_s": (s["lepage.gauss_blocks"], "s"),
        "lepage.atom_blocks_s": (s["lepage.atom_blocks"], "s"),
        "lepage.scale_pairs": (c["lepage.scale_pairs"], "count"),
        "meyer_wavelet.envelope_points": (c["meyer_wavelet.envelope_points"], "count"),
        "lepage.sample_atoms_s": (s["lepage.sample_atoms"], "s"),
        "lepage.atoms_drawn": (c["lepage.atoms_drawn"], "count"),
        "lepage.direct_field_s": (s["lepage.direct_field"], "s"),
        "lepage.direct_terms": (c["lepage.direct_terms"], "count"),
        "synthesis.synthesize_s": (s["synthesis.synthesize"], "s"),
        "synthesis.self_s": (own["synthesis.synthesize"], "s"),
        "geometry.holder_axis_s": (s["geometry.holder_axis_exponent"], "s"),
        "geometry.level_set_s": (s["geometry.level_set"], "s"),
        "geometry.box_count_s": (s["geometry.box_count_dimension"], "s"),
        "geometry.localtime_s": (s["geometry.localtime_holder_report"], "s"),
        "geometry.stable_scale_s": (s["geometry.estimate_stable_scale"], "s"),
        "fieldio.read_s": (s["fieldio.read_field"], "s"),
        "fieldio.write_s": (s["fieldio.write_field"], "s"),
        "fieldio.digest_s": (s["fieldio.file_digest"], "s"),
        "fieldio.csv_s": (s["fieldio.write_csv"], "s"),
        "fieldio.bytes_read": (c["fieldio.bytes_read"], "bytes"),
        "fieldio.bytes_written": (c["fieldio.bytes_written"], "bytes"),
        "cli.self_s": (own["cli.main"], "s"),
    }
