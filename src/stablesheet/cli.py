"""Batch command-line front end for synthesis and estimation pipelines.

Every subcommand prints a one-line JSON summary to standard output, writes
artifacts atomically, and records a run manifest whose digest every output
references. All randomness flows from a single ``--seed``; replication and
component streams are derived through the labeled hash scheme in ``_rng``.
Exit status: 0 on success, 2 on validation failure (bad flags, unreadable or
malformed inputs, out-of-domain parameters), 1 on internal error.

Each subcommand is declared once, in ``_SUBCOMMANDS``: its handler and its
flags. The parser and the value lookup both read that table, and ``_run``
does the timing and the manifest for every handler.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import fieldio
from . import fractional_kernel
from . import geometry
from . import lepage
from . import meyer_wavelet
from . import synthesis
from ._rng import derived_seed

_REQUIRED = object()


def _floats(value) -> list:
    if isinstance(value, str):
        return [float(p) for p in value.split(",") if p != ""]
    return [float(p) for p in np.atleast_1d(value)]


def _ints(value) -> list:
    if isinstance(value, str):
        return [int(p) for p in value.split(",") if p != ""]
    return [int(p) for p in value]


def _hurst(value) -> list:
    hurst = _floats(value)
    fractional_kernel.check_hurst(hurst)
    return hurst


def _shape(value) -> tuple:
    if isinstance(value, str):
        return tuple(int(p) for p in value.lower().split("x"))
    return tuple(int(p) for p in value)


def _bounds(value) -> tuple:
    if isinstance(value, str):
        value = [ax.split(",") for ax in value.lower().split("x")]
    return tuple((float(lo), float(hi)) for lo, hi in value)


def _paths(value) -> list:
    if isinstance(value, str):
        value = [p for p in value.split(",") if p]
    paths = list(value)
    if not paths:
        raise ValueError("names no file")
    return paths


def _checks(value):
    return "all" if value == "all" else _ints(value)


def _clean(obj):
    """Make an object strict-JSON safe: numpy to native, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


class Flag(NamedTuple):
    """One flag of one subcommand.

    ``cast`` parses the value whatever its source (flag, config or default).
    ``when`` lists the ``--what`` values the flag applies to (all when empty);
    a flag that does not apply is neither required nor a run parameter.
    """

    name: str
    cast: Callable = str
    default: object = _REQUIRED
    when: tuple = ()
    choices: tuple = ()
    note: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")

    def help(self) -> str:
        if self.default is _REQUIRED:
            text = "required"
        elif self.default is None:
            text = "optional"
        else:
            text = f"default: {self.default}"
        if self.when:
            text += f"; only with --what {' or '.join(self.when)}"
        return f"{self.note}; {text}" if self.note else text


def _load_config(path) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config


def _resolve(flags: tuple, args: argparse.Namespace, config: dict) -> dict:
    """Flag, else config entry, else default; each value cast once."""
    values = {}
    for f in flags:
        value = getattr(args, f.dest)
        if value is None:
            value = config.get(f.name, config.get(f.dest))
        if value is None:
            value = f.default
        if value is not None and value is not _REQUIRED:
            try:
                value = f.cast(value)
                if f.choices and value not in f.choices:
                    raise ValueError(f"expected one of {', '.join(f.choices)}")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"--{f.name}: cannot read {value!r} ({exc})") from exc
        values[f.dest] = value
    what = values.get("what")
    applies = [f for f in flags if not f.when or what in f.when]
    for f in applies:
        if values[f.dest] is _REQUIRED:
            raise ValueError(f"missing required option --{f.name}")
    return {f.dest: values[f.dest] for f in applies}


# --- subcommand handlers: each takes the resolved flags and the run digest ----


def _synth(o: dict, run: str) -> dict:
    """synthesize a field and write a .zh grid file"""
    field = synthesis.synthesize(
        o["hurst"], o["alpha"], synthesis.TruncationDomain(o["n"], o["M"]),
        (o["bounds"], o["grid"]), o["seed"], d=o["d"], count=o["count"],
    )
    fieldio.write_field(field, o["out"], run=run)
    return {
        "seed": o["seed"], "alpha": o["alpha"], "hurst": o["hurst"],
        "n": o["n"], "M": o["M"], "shape": o["grid"], "components": o["d"],
        "coefficient_law": field.meta["coefficient_law"],
    }


def _coeffs(o: dict, run: str) -> dict:
    """draw and store a coefficient set (packed complex64)"""
    atoms = lepage.sample_atoms(o["seed"], o["count"], len(o["hurst"]))
    header = fieldio.write_coefficients(
        atoms, o["alpha"], o["n"], o["M"], o["out"], hurst=o["hurst"], run=run
    )
    return {
        "seed": o["seed"], "alpha": o["alpha"], "n": o["n"], "M": o["M"],
        "count": o["count"], "blocks": len(header["blocks"]),
        "k_cap": header["k_cap"],
    }


def _tables(o: dict, run: str) -> dict:
    """dump wavelet, kernel and scale-constant tables as CSV"""
    if o["what"] == "psi-hat":
        xi = np.linspace(o["xi_min"], o["xi_max"], o["points"])
        vals = meyer_wavelet.psi_hat(xi)
        header = ["xi", "re_psi_hat", "im_psi_hat"]
        rows = [[x, v.real, v.imag] for x, v in zip(xi, vals)]
    elif o["what"] == "psi-v":
        ys = np.linspace(-o["y_max"], o["y_max"], o["points"])
        vals = fractional_kernel.psi_v_values(o["v"], o["alpha"], ys)
        header = ["y", "psi_v"]
        rows = [[y, w] for y, w in zip(ys, vals)]
    else:  # kappa
        header = ["alpha", "v", "kappa"]
        rows = [[a, v, fractional_kernel.kappa(a, v)]
                for a in o["alpha_grid"] for v in o["v_grid"]]
    fieldio.write_csv(o["out"], header, rows, run=run)
    return {"what": o["what"], "rows": len(rows)}


def _ecf_check(o: dict, run: str) -> dict:
    """compare the empirical characteristic-function scale to quadrature"""
    alpha, hurst, t_point, samples = o["alpha"], o["hurst"], o["t"], o["samples"]
    if len(t_point) != len(hurst):
        raise ValueError("--t and --hurst must have the same length")
    if samples < 1:
        raise ValueError("--samples must be at least 1")
    t_arr = np.asarray(t_point, dtype=float)
    xs = np.empty(samples)
    for r in range(samples):
        atoms = lepage.sample_atoms(
            derived_seed(o["seed"], "replication", r), o["count"], len(hurst)
        )
        xs[r] = lepage.direct_field(atoms, t_arr, hurst, alpha)
    sigma = fractional_kernel.scale_sigma(t_point, None, hurst, alpha)
    if alpha == 2.0:
        observed = float(np.var(xs))
        target = 2.0 * sigma**2
        summary_stats = {"variance": observed, "target_variance": target}
    else:
        est = geometry.estimate_stable_scale(xs, alpha)
        observed = est.sigma_hat
        target = sigma
        summary_stats = {
            "sigma_hat": observed, "target_sigma": target,
            "fit_residual": est.residual,
        }
    ratio = observed / target
    fieldio.write_csv(o["out"], ["replication", "value"], list(enumerate(xs)),
                      run=run)
    return {
        "seed": o["seed"], "alpha": alpha, "hurst": hurst, "t": t_point,
        "samples": samples, "ratio": ratio, "tol": o["tol"],
        "passes": bool(abs(ratio - 1.0) <= o["tol"]), **summary_stats,
    }


def _holder(o: dict, run: str) -> dict:
    """per-axis Holder exponent estimates for stored fields"""
    paths, expect, tol = o["in"], o["expect"], o["tol"]
    fields = [fieldio.read_field(p) for p in paths]
    dimension = fields[0].dimension
    if o["axis"] == "all":
        axes = list(range(dimension))
    else:
        axes = [int(o["axis"])]
        if not 0 <= axes[0] < dimension:
            raise ValueError(f"--axis {axes[0]} is not an axis of a "
                             f"{dimension}-dimensional field")
    if expect is not None and len(expect) <= max(axes):
        raise ValueError(f"--expect gives {len(expect)} exponent(s); "
                         f"axis {max(axes)} needs {max(axes) + 1}")
    rows = []
    means = {}
    for ax in axes:
        slopes = [geometry.holder_axis_exponent(f, ax) for f in fields]
        rows.extend([p, ax, s] for p, s in zip(paths, slopes))
        means[f"axis{ax}"] = float(np.mean(slopes))
    passes = expect is None or all(
        abs(means[f"axis{ax}"] - expect[ax]) <= tol for ax in axes
    )
    fieldio.write_csv(o["out"], ["file", "axis", "exponent"], rows, run=run)
    return {
        "files": len(paths), "mean_exponents": means, "expect": expect,
        "tol": tol, "passes": bool(passes),
    }


def _localtime(o: dict, run: str) -> dict:
    """local-time Holder report from stored fields"""
    level = o["level"]
    fields = [fieldio.read_field(p) for p in o["in"]]
    report = geometry.localtime_holder_report(
        fields, level[0] if len(level) == 1 else level, o["corner"], o["radii"]
    )
    rows = list(zip(report["r_values"], report["lmax_means"]))
    fieldio.write_csv(o["out"], ["r", "mean_max_localtime"], rows, run=run)
    return {"files": len(o["in"]), **report}


def _levelset_dim(o: dict, run: str) -> dict:
    """level-set box dimension, or the anisotropic covering exponent"""
    scales = o["scales"]
    if o["what"] == "covering":
        hurst = o["hurst"]
        axis = np.linspace(0.0, 1.0, o["points"])
        lattice = np.stack(
            np.meshgrid(axis, axis, indexing="ij"), -1
        ).reshape(-1, 2)
        est = geometry.box_count_dimension(
            lattice, ((0.0, 1.0), (0.0, 1.0)), tuple(hurst), tuple(scales)
        )
        Q = float(sum(1.0 / h for h in hurst))
        deviation = abs(est.slope / Q - 1.0)
        rows = [[scale, count] for scale, _, count in est.box_counts]
        fieldio.write_csv(o["out"], ["scale", "box_count"], rows, run=run)
        return {
            "what": "covering", "slope": est.slope, "Q": Q,
            "deviation": deviation, "r_squared": est.r_squared,
            "passes": bool(deviation <= 0.05),
        }
    rows = []
    dims = []
    for p in o["in"]:
        field = fieldio.read_field(p)
        pts = geometry.level_set(field, o["level"])
        bounds = tuple((float(ax[0]), float(ax[-1])) for ax in field.axes)
        est = geometry.box_count_dimension(pts, bounds, "euclidean", tuple(scales))
        dims.append(est.slope)
        rows.append([p, pts.shape[0], est.slope, est.r_squared,
                     est.low_confidence])
    mean_dim = float(np.mean(dims))
    expect, tol = o["expect"], o["tol"]
    passes = True if expect is None else abs(mean_dim - expect) <= tol
    fieldio.write_csv(
        o["out"], ["file", "points", "dimension", "r_squared", "low_confidence"],
        rows, run=run,
    )
    return {
        "what": o["what"], "files": len(o["in"]), "mean_dimension": mean_dim,
        "expect": expect, "tol": tol, "passes": bool(passes),
    }


def _formula(o: dict, run: None) -> dict:
    """closed-form inverse-image dimension value"""
    hurst, d = o["hurst"], o["d"]
    report = geometry.dim_inverse_image_formula(hurst, d, o["dimF"])
    try:
        tau, beta = geometry.beta_tau(hurst, d)
    except ValueError:
        tau = beta = None
    return {
        "hurst": hurst, "d": d, "dimF": o["dimF"], "value": report["value"],
        "k": report["k"], "sandwich_holds": report["sandwich_holds"],
        "regime": report["regime"], "tau": tau, "beta": beta,
    }


def _scaling_check(o: dict, run: str) -> dict:
    """two-sample KS test of the local-time scaling law"""
    seeds = [derived_seed(o["seed"], "replication", r) for r in range(o["reps"])]
    report = geometry.localtime_scaling_check(
        seeds, o["hurst"], o["alpha"], o["d"], o["region"], o["n_scale"],
        synthesis.TruncationDomain(o["n"], o["M"]), shape=o["shape"],
        level=o["level"],
    )
    rows = [["base", i, v] for i, v in enumerate(report.pop("base_values"))]
    rows += [["scaled", i, v] for i, v in enumerate(report.pop("scaled_values"))]
    fieldio.write_csv(o["out"], ["group", "index", "max_localtime"], rows,
                      run=run)
    return {"seed": o["seed"], **report}


def _report(o: dict, run: str) -> dict:
    """run acceptance checks and write a pass/fail table"""
    from . import acceptance

    results = acceptance.run_criteria(None if o["checks"] == "all" else o["checks"])
    rows = [
        [r["criterion"], "PASS" if r["passed"] else "FAIL", r["details"]]
        for r in results
    ]
    if o["out"]:
        fieldio.write_csv(o["out"], ["criterion", "status", "details"], rows,
                          run=run)
    failed = [r["criterion"] for r in results if not r["passed"]]
    return {
        "total": len(results), "passed": len(results) - len(failed),
        "failed": failed, "all_passed": not failed,
        "checks": [r["criterion"] for r in results],
    }


_SEED = Flag("seed", int)
_ALPHA = Flag("alpha", float)
_HURST = Flag("hurst", _hurst)
_IN = Flag("in", _paths)
_OUT = Flag("out")
_COMMON = (
    Flag("manifest", default=None,
         note="run-manifest path, else <out>.manifest.json"),
    Flag("threads", int, None,
         note="accepted and ignored by every subcommand; the CPU affinity mask "
              "sets the worker threads, and outputs never depend on either"),
)
# Every resolved flag is a manifest parameter, except these.
_NOT_PARAMETERS = {"seed", "in", "out", "manifest", "threads"}
_LEVEL_SET, _COVERING = ("level-set",), ("covering",)

_SUBCOMMANDS = {
    "synth": (_synth, (
        _SEED, _ALPHA, _HURST, Flag("n", int, 6), Flag("M", float, 2.0),
        Flag("grid", _shape, "256x256"),
        Flag("bounds", _bounds, "0.1,1.9x0.1,1.9"), Flag("d", int, 1),
        Flag("count", int, synthesis.DEFAULT_ATOM_COUNT), _OUT,
    )),
    "coeffs": (_coeffs, (
        _SEED, _ALPHA, _HURST, Flag("n", int), Flag("M", float),
        Flag("count", int, synthesis.DEFAULT_ATOM_COUNT), _OUT,
    )),
    "tables": (_tables, (
        Flag("what", choices=("psi-hat", "psi-v", "kappa")),
        Flag("v", float, when=("psi-v",)),
        Flag("alpha", float, when=("psi-v",)),
        Flag("points", int, 512, when=("psi-hat", "psi-v")),
        Flag("xi-min", float, 0.05, when=("psi-hat",)),
        Flag("xi-max", float, 8.0, when=("psi-hat",)),
        Flag("y-max", float, 8.0, when=("psi-v",)),
        Flag("alpha-grid", _floats, "0.8,1.0,1.2,1.4,1.6,1.8,2.0",
             when=("kappa",)),
        Flag("v-grid", _floats, "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
             when=("kappa",)),
        _OUT,
    )),
    "ecf-check": (_ecf_check, (
        _SEED, _ALPHA, _HURST, Flag("t", _floats), Flag("samples", int, 10_000),
        Flag("count", int, 20_000), Flag("tol", float, 0.05), _OUT,
    )),
    "holder": (_holder, (
        _IN, Flag("axis", default="all"), Flag("expect", _floats, None),
        Flag("tol", float, 0.1), _OUT,
    )),
    "localtime": (_localtime, (
        _IN, Flag("level", _floats, 0.0), Flag("corner", _floats),
        Flag("radii", _floats), _OUT,
    )),
    "levelset-dim": (_levelset_dim, (
        Flag("what", default="level-set", choices=("level-set", "covering")),
        _IN._replace(when=_LEVEL_SET), Flag("level", float, 0.0, when=_LEVEL_SET),
        Flag("scales", _ints, "2,3,4,5,6"),
        Flag("expect", float, None, when=_LEVEL_SET),
        Flag("tol", float, 0.15, when=_LEVEL_SET),
        _HURST._replace(when=_COVERING), Flag("points", int, 1024, when=_COVERING),
        _OUT,
    )),
    "formula": (_formula, (_HURST, Flag("d", int), Flag("dimF", float))),
    "scaling-check": (_scaling_check, (
        _SEED, _HURST, _ALPHA, Flag("d", int, 1), Flag("region", _bounds),
        Flag("n-scale", int, 2), Flag("reps", int, 400), Flag("n", int, 4),
        Flag("M", float, 1.5), Flag("shape", _shape, "128x128"),
        Flag("level", float, 0.0), _OUT,
    )),
    "report": (_report, (
        Flag("checks", _checks, "all"), _OUT._replace(default=None),
    )),
}


def _run(name: str, args: argparse.Namespace, argv: list) -> dict:
    """Resolve the flags, run the handler and record the run manifest.

    A subcommand without ``--out`` (``formula``) writes no manifest.
    """
    t0 = time.time()
    handler, flags = _SUBCOMMANDS[name]
    o = _resolve(_COMMON + flags, args, _load_config(args.config))
    if "out" not in o:
        return {"command": name, **handler(o, None)}
    manifest = fieldio.RunManifest(
        subcommand=name,
        command=list(argv),
        seeds=[o["seed"]] if "seed" in o else [],
        parameters=_clean({k: v for k, v in o.items() if k not in _NOT_PARAMETERS}),
        input_digests={p: fieldio.file_digest(p) for p in o.get("in", [])},
    )
    digest = manifest.digest()
    summary = handler(o, digest)
    out = o["out"]
    manifest.output_digests = {p: fieldio.file_digest(p) for p in [out] if p}
    manifest.wall_clock_seconds = time.time() - t0
    path = o["manifest"] or (f"{out}.manifest.json" if out else None)
    if path:
        manifest.write(path)
    return {"command": name, "out": out, "manifest": digest, **summary}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablesheet",
        description="Synthesize anisotropic stable random sheets and run "
        "distributional, regularity, local-time, and dimension checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (handler, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", help="JSON config file; flags override it")
        for f in _COMMON + flags:
            p.add_argument(f"--{f.name}", choices=f.choices or None, help=f.help())
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        summary = _run(args.subcommand, args, argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(fieldio.canonical_json(_clean(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
