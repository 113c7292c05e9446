"""The workloads: set-up, timed rounds of operations, and checks.

A round is a fixed set of operations plus the workload's ensemble-level
estimator, so its wall time means the same thing however many rounds fit in
a run. After each round, outside its timing, `check_round` compares what the
operations produced with `references` and keeps only small results, so memory
does not grow with the number of rounds; `finish` makes the checks that need
the whole run. No check compares with stored output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
import traceback

import numpy as np

import references as ref
from stablesheet import cli, fieldio, fractional_kernel, geometry, lepage, synthesis

LEVELSET_SCALES = (2, 3, 4, 5, 6)
LOCALTIME_CORNER = (0.1, 0.1)
LOCALTIME_RADII = (0.8, 0.4, 0.2, 0.1, 0.05)

# Sizes of each workload. "full" is what the benchmark measures; "smoke" runs
# every workload and its checks in seconds, for the benchmark's own tests.
PROFILES = {
    "full": {
        "gauss-ensemble": {"points": 1024, "n": 6, "M": 1.25, "members": 2},
        "atom-levelset": {"points": 512, "n": 6, "M": 1.25, "atoms": 20000, "stride": 8},
        "direct-mc": {"atoms": 20000, "pools": 1000},
    },
    "smoke": {
        "gauss-ensemble": {"points": 256, "n": 3, "M": 1.25, "members": 2},
        "atom-levelset": {"points": 128, "n": 6, "M": 1.25, "atoms": 2000, "stride": 4},
        "direct-mc": {"atoms": 500, "pools": 1000},
    },
}


class Op:
    """One timed operation and what its checks need."""

    def __init__(self, round_index: int) -> None:
        self.round = round_index
        self.seconds = 0.0
        self.failed = False
        self.data = {}


class Workload:
    """Base: subclasses give run_ops(round) and check_round(ops), and may
    override setup(), ensemble(ops) and finish()."""

    name = ""

    def __init__(self, size: dict, seed: int, workdir: str) -> None:
        self.size = size
        self.seed = int(seed)
        self.workdir = workdir
        self.ops = []
        self.checks = {}
        self.info = {}  # values recorded beside the checks, not gated

    def tables(self) -> list:
        return []

    def setup(self) -> None:
        """Cold table builds: the cache is emptied first, as in a fresh process."""
        fractional_kernel.table_for.cache_clear()
        for args in self.tables():
            fractional_kernel.table_for(*args)

    def timed_op(self, round_index: int, body) -> Op:
        op = Op(round_index)
        t0 = time.perf_counter()
        try:
            body(op)
        except Exception:
            op.failed = True
            traceback.print_exc(file=sys.stderr)
        op.seconds = time.perf_counter() - t0
        self.ops.append(op)
        return op

    def round(self, round_index: int) -> tuple:
        """Run one round; returns its wall time and its operations."""
        t0 = time.perf_counter()
        ops = self.run_ops(round_index)
        try:
            self.ensemble(ops)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            for op in ops:
                op.failed = True
        return time.perf_counter() - t0, ops

    def ensemble(self, ops: list) -> None:
        pass

    def finish(self) -> None:
        pass

    def verdict(self, name: str, ok: bool, value, bound, ops=None) -> None:
        """Record one check; a failed check fails its operations (all, if none named).

        Checks of one name, made once per operation, share one entry.
        """
        entry = self.checks.setdefault(name, {"ok": True, "values": [], "bound": bound})
        entry["ok"] = entry["ok"] and bool(ok)
        entry["values"].append(value)
        if not ok:
            for op in self.ops if ops is None else ops:
                op.failed = True

    def done(self, key) -> list:
        return [op for op in self.ops if key in op.data]


# --- gauss-ensemble ------------------------------------------------------------


class Synthesis(Workload):
    """A workload whose ops synthesize fields at H, ALPHA on a square grid over BOUNDS."""

    H = ALPHA = BOUNDS = None

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.trunc = synthesis.TruncationDomain(size["n"], size["M"])
        self.grid = (self.BOUNDS, (size["points"], size["points"]))

    def tables(self):
        return [(h, self.ALPHA, self.trunc.n, self.trunc.M) for h in sorted(set(self.H))]


class GaussEnsemble(Synthesis):
    """Criterion 10's ensemble: alpha = 2, H = (0.5, 0.5), n = 6, M = 1.25."""

    name = "gauss-ensemble"
    H = (0.5, 0.5)
    ALPHA = 2.0
    BOUNDS = ((0.05, 1.15), (0.05, 1.15))
    LAG = 8

    def run_ops(self, round_index):
        def member(op, index):
            seed = self.seed * 10_000 + round_index * self.size["members"] + index
            field = synthesis.synthesize(self.H, self.ALPHA, self.trunc, self.grid, seed)
            path = os.path.join(self.workdir, f"member-{round_index}-{index}.zh")
            fieldio.write_field(field, path)
            back = fieldio.read_field(path)
            points = geometry.level_set(back, 0.0)
            dim = geometry.box_count_dimension(points, self.BOUNDS, "euclidean", LEVELSET_SCALES)
            holder = [geometry.holder_axis_exponent(back, axis) for axis in (0, 1)]
            op.data = {"path": path, "field": field, "back": back, "dim": dim.slope,
                       "holder": holder}

        return [self.timed_op(round_index, lambda op, i=i: member(op, i))
                for i in range(self.size["members"])]

    def ensemble(self, ops):
        # localtime_holder_report through `stablesheet localtime`, in process:
        # argument parsing, the manifest with its input digests, read_field
        # and the CSV write ride along. --level is passed because its default
        # is not cast (see CHANGES.md).
        out = os.path.join(self.workdir, f"localtime-{ops[0].round}.csv")
        argv = ["localtime", "--in", ",".join(op.data["path"] for op in ops),
                "--level", "0", "--corner", ",".join(map(str, LOCALTIME_CORNER)),
                "--radii", ",".join(map(str, LOCALTIME_RADII)), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        for op in ops:
            op.data["localtime"] = (code, out)

    def check_round(self, ops):
        code, out = ops[0].data.get("localtime", (None, None))
        self.verdict("localtime.exit", code == 0, code, 0, ops)
        if code == 0:
            rows = _csv_rows(out)
            self.verdict("localtime.rows", len(rows) == len(LOCALTIME_RADII), len(rows),
                         len(LOCALTIME_RADII), ops)
            with open(out + ".manifest.json") as fh:
                recorded = json.load(fh)["input_digests"]
            digests = {}
            for op in ops:
                with open(op.data["path"], "rb") as fh:
                    digests[op.data["path"]] = hashlib.sha256(fh.read()).hexdigest()
            self.verdict("localtime.digests", recorded == digests, recorded == digests, True, ops)
        for op in ops:
            if "back" not in op.data:
                continue
            field, back = op.data.pop("field"), op.data.pop("back")
            os.remove(op.data["path"])
            same = (back.values.tobytes() == field.values.tobytes() and back.meta == field.meta
                    and all(np.array_equal(a, b) for a, b in zip(back.axes, field.axes)))
            self.verdict("roundtrip", same, same, True, [op])
            finite = bool(np.isfinite(field.values).all())
            self.verdict("finite", finite, finite, True, [op])
            # Var(Z(t1 + h, t2) - Z(t1, t2)) = 2 |h|^2H1 kappa(2, H1) t2^2H2 kappa(2, H2)
            axis0, axis1 = field.axes
            h = self.LAG * float(axis0[1] - axis0[0])
            target = (2.0 * h ** (2 * self.H[0]) * ref.kappa_closed(self.H[0])
                      * axis1 ** (2 * self.H[1]) * ref.kappa_closed(self.H[1]))
            values = field.values[0]
            inc = values[self.LAG:, :] - values[:-self.LAG, :]
            op.data["variance_ratio"] = float(np.mean(np.mean(inc**2, axis=0) / target))
            # one sample per disjoint stretch of max(h, 2^-n) along axis 0,
            # with the columns of a field counted as one sample: conservative
            op.data["samples"] = int(float(axis0[-1] - axis0[0]) / max(h, 2.0 ** -self.trunc.n))

    def finish(self):
        # Truncation only removes variance, so the ensemble ratio lies in
        # (0, 1 + 5 standard errors].
        done = self.done("variance_ratio")
        if not done:
            return self.verdict("increment_variance_ratio", False, None, None)
        ratio = float(np.mean([op.data["variance_ratio"] for op in done]))
        upper = 1.0 + ref.variance_ratio_halfwidth(sum(op.data["samples"] for op in done))
        self.verdict("increment_variance_ratio", 0.0 < ratio <= upper, ratio, [0.0, upper])


# --- atom-levelset -------------------------------------------------------------


class AtomLevelset(Synthesis):
    """Criterion 11's alpha = 1.5 field at a quarter of the points, 20 000 atoms."""

    name = "atom-levelset"
    H = (0.6, 0.6)
    ALPHA = 1.5
    BOUNDS = ((0.05, 1.05), (0.05, 1.05))
    # relative RMS: 100 times the psi table's interpolation bound (criterion 2)
    PROJECTION_BOUND = 1e-6

    def run_ops(self, round_index):
        def one(op):
            seed = self.seed * 10_000 + round_index
            field = synthesis.synthesize(self.H, self.ALPHA, self.trunc, self.grid, seed,
                                         count=self.size["atoms"])
            # The median level is crossed on every pool; level 0 is not always,
            # when one low-frequency atom dominates the field.
            points = geometry.level_set(field, float(np.median(field.values[0])))
            dim = geometry.box_count_dimension(points, self.BOUNDS, "euclidean", LEVELSET_SCALES)
            op.data = {"seed": seed, "field": field, "dim": dim.slope}

        return [self.timed_op(round_index, one)]

    def check_round(self, ops):
        # The atom route sums every level j <= n that holds an atom, with the
        # translations |k| <= k_cap. So on the pool it drew, the field must
        # equal the direct kernel sum with each atom's kernel projected onto
        # the levels j <= n and every translation kept, in closed form
        # (references.projected_kernel), up to the psi table's interpolation
        # (< 1e-8, criterion 2) and the cut |k| > k_cap. The distance from the
        # unprojected sum, lepage.direct_field_grid, is recorded beside the
        # checks: it is the fine-scale truncation, and it depends on the pool
        # (see CHANGES.md).
        stride = self.size["stride"]
        for op in ops:
            if "field" not in op.data:
                continue
            field = op.data.pop("field")
            # A scalar field's atom pool is drawn with the master seed itself.
            atoms = lepage.sample_atoms(op.data["seed"], self.size["atoms"], 2)
            axes = tuple(a[::stride] for a in field.axes)
            series = field.values[0][::stride, ::stride]
            projected = ref.direct_grid(atoms.points, lepage.atom_weights(atoms, self.ALPHA),
                                        axes, self.H, self.ALPHA, self.trunc.n)
            residual = _relative_rms(series, projected)
            self.verdict("projected_direct_residual", residual < self.PROJECTION_BOUND,
                         residual, self.PROJECTION_BOUND, [op])
            full = lepage.direct_field_grid(atoms, axes, self.H, self.ALPHA)
            self.info.setdefault("direct_field_grid_residual", []).append(
                _relative_rms(series, full))
            # Halving the box side multiplies a box count by 1 to 4, so the
            # fitted slope lies in [0, 2] for any nonempty point set.
            dim = op.data["dim"]
            self.verdict("levelset_dim", math.isfinite(dim) and 0.0 <= dim <= 2.0,
                         dim, [0.0, 2.0], [op])


# --- direct-mc -----------------------------------------------------------------


class DirectMC(Workload):
    """Criterion 4's path: direct kernel sums over fresh atom pools at t = (1, 1)."""

    name = "direct-mc"
    H = (0.5, 0.7)
    T = (1.0, 1.0)
    CHECKED_POOLS = 3
    SUM_TOLERANCE = 1e-12
    SCALE_SYSTEMATIC = 0.05  # criterion 4's tolerance for the finite series

    def run_ops(self, round_index):
        pools = self.size["pools"]

        def one(op, index):
            seed = self.seed * 10_000_000 + round_index * pools + index
            atoms = lepage.sample_atoms(seed, self.size["atoms"], 2)
            op.data = {
                "seed": seed,
                1.5: lepage.direct_field(atoms, self.T, self.H, 1.5),
                2.0: lepage.direct_field(atoms, self.T, self.H, 2.0),
            }

        return [self.timed_op(round_index, lambda op, i=i: one(op, i)) for i in range(pools)]

    def ensemble(self, ops):
        geometry.estimate_stable_scale([op.data[1.5] for op in ops], 1.5)

    def check_round(self, ops):
        if ops and ops[0].round > 0:
            return
        for op in [op for op in ops if 2.0 in op.data][: self.CHECKED_POOLS]:
            atoms = lepage.sample_atoms(op.data["seed"], self.size["atoms"], 2)
            for alpha in (1.5, 2.0):
                value, scale = ref.direct_sum(atoms.points, lepage.atom_weights(atoms, alpha),
                                              self.T, self.H, alpha)
                err = abs(op.data[alpha] - value) / scale
                self.verdict(f"direct_sum.alpha{alpha}", err <= self.SUM_TOLERANCE,
                             err, self.SUM_TOLERANCE, [op])

    def finish(self):
        # Bounds are 5 standard errors at the run's sample size, fixed before
        # looking at the values; see references.*_halfwidth.
        done = self.done(2.0)
        if len(done) < 1000:
            return self.verdict("sample_size", False, len(done), 1000)
        x2 = np.array([op.data[2.0] for op in done])
        sigma2 = ref.point_scale(self.T, self.H, 2.0, ref.kappa_closed)
        var_ratio = float(np.var(x2, ddof=1)) / (2.0 * sigma2**2)
        bound = ref.variance_ratio_halfwidth(len(done))
        self.verdict("alpha2_variance_ratio", abs(var_ratio - 1.0) <= bound, var_ratio,
                     [1.0 - bound, 1.0 + bound])
        x15 = np.array([op.data[1.5] for op in done])
        est = geometry.estimate_stable_scale(x15, 1.5)
        sigma15 = ref.point_scale(self.T, self.H, 1.5, lambda h: ref.kappa_quad(1.5, h))
        scale_ratio = est.sigma_hat / sigma15
        bound = self.SCALE_SYSTEMATIC + ref.scale_ratio_halfwidth(len(done), 1.5)
        self.verdict("alpha1.5_scale_ratio", abs(scale_ratio - 1.0) <= bound, scale_ratio,
                     [1.0 - bound, 1.0 + bound])


def _relative_rms(values: np.ndarray, reference: np.ndarray) -> float:
    return float(np.sqrt(np.mean((values - reference) ** 2) / np.mean(reference**2)))


def _csv_rows(path: str) -> list:
    """Data rows of a CSV the CLI wrote, without the header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


WORKLOADS = {w.name: w for w in (GaussEnsemble, AtomLevelset, DirectMC)}
