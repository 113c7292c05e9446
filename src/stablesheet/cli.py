"""Batch command-line front end for synthesis and estimation pipelines.

Every subcommand prints a one-line JSON summary to standard output, writes
artifacts atomically, and records a run manifest whose digest every output
references. All randomness flows from a single ``--seed``; replication and
component streams are derived through the labeled hash scheme in ``_rng``.
Exit status: 0 on success, 2 on validation failure (bad flags, unreadable or
malformed inputs, out-of-domain parameters), 1 on internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

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


def _shape(value) -> tuple:
    if isinstance(value, str):
        return tuple(int(p) for p in value.lower().split("x"))
    return tuple(int(p) for p in value)


def _bounds(value) -> tuple:
    if isinstance(value, str):
        axes = value.lower().split("x")
        parsed = []
        for ax in axes:
            lo, hi = (float(p) for p in ax.split(","))
            parsed.append((lo, hi))
        return tuple(parsed)
    return tuple((float(lo), float(hi)) for lo, hi in value)


def _paths(value) -> list:
    if isinstance(value, str):
        return [p for p in value.split(",") if p]
    return list(value)


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


class Options:
    """Flag values with JSON-config fallback; flags override file values."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = args
        self._config = config

    def get(self, name: str, default=_REQUIRED, cast=None):
        value = getattr(self._args, name.replace("-", "_"), None)
        if value is None:
            value = self._config.get(name, self._config.get(name.replace("-", "_")))
        if value is None:
            if default is _REQUIRED:
                raise ValueError(f"missing required option --{name}")
            value = default
        return cast(value) if cast is not None and value is not None else value


def _load_config(args: argparse.Namespace) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config


def _start_manifest(subcommand: str, argv: list, seeds: list, params: dict,
                    inputs: list):
    manifest = fieldio.RunManifest(
        subcommand=subcommand,
        command=[subcommand] if not argv else list(argv),
        seeds=[int(s) for s in seeds],
        parameters=_clean(params),
        input_digests={p: fieldio.file_digest(p) for p in inputs},
    )
    return manifest, manifest.digest()


def _finish_manifest(manifest, outputs: list, manifest_path, t0: float) -> None:
    manifest.output_digests = {p: fieldio.file_digest(p) for p in outputs}
    manifest.wall_clock_seconds = time.time() - t0
    if manifest_path:
        manifest.write(manifest_path)


def _manifest_path(opt: Options, out) -> object:
    explicit = opt.get("manifest", default=None)
    if explicit:
        return explicit
    return f"{out}.manifest.json" if out else None


# --- subcommand handlers --------------------------------------------------------


def _cmd_synth(opt: Options, argv: list) -> dict:
    t0 = time.time()
    seed = opt.get("seed", cast=int)
    alpha = opt.get("alpha", cast=float)
    hurst = opt.get("hurst", cast=_floats)
    n = opt.get("n", default=6, cast=int)
    M = opt.get("M", default=2.0, cast=float)
    shape = opt.get("grid", default=(256, 256), cast=_shape)
    bounds = opt.get("bounds", default=((0.1, 1.9), (0.1, 1.9)), cast=_bounds)
    d = opt.get("d", default=1, cast=int)
    count = opt.get("count", default=synthesis.DEFAULT_ATOM_COUNT, cast=int)
    out = opt.get("out")
    params = {
        "alpha": alpha, "hurst": hurst, "n": n, "M": M,
        "grid": list(shape), "bounds": [list(b) for b in bounds],
        "d": d, "count": count,
    }
    manifest, digest = _start_manifest("synth", argv, [seed], params, [])
    field = synthesis.synthesize(
        hurst, alpha, synthesis.TruncationDomain(n, M), (bounds, shape), seed,
        d=d, count=count,
    )
    fieldio.write_field(field, out, run=digest)
    _finish_manifest(manifest, [out], _manifest_path(opt, out), t0)
    return {
        "command": "synth", "out": out, "manifest": digest, "seed": seed,
        "alpha": alpha, "hurst": hurst, "n": n, "M": M, "shape": list(shape),
        "components": d, "coefficient_law": field.meta["coefficient_law"],
    }


def _cmd_coeffs(opt: Options, argv: list) -> dict:
    t0 = time.time()
    seed = opt.get("seed", cast=int)
    alpha = opt.get("alpha", cast=float)
    hurst = opt.get("hurst", cast=_floats)
    n = opt.get("n", cast=int)
    M = opt.get("M", cast=float)
    count = opt.get("count", default=synthesis.DEFAULT_ATOM_COUNT, cast=int)
    out = opt.get("out")
    params = {"alpha": alpha, "hurst": hurst, "n": n, "M": M, "count": count}
    manifest, digest = _start_manifest("coeffs", argv, [seed], params, [])
    atoms = lepage.sample_atoms(seed, count, len(hurst))
    header = fieldio.write_coefficients(
        atoms, alpha, n, M, out, hurst=hurst, run=digest
    )
    _finish_manifest(manifest, [out], _manifest_path(opt, out), t0)
    return {
        "command": "coeffs", "out": out, "manifest": digest, "seed": seed,
        "alpha": alpha, "n": n, "M": M, "count": count,
        "blocks": len(header["blocks"]), "k_cap": header["k_cap"],
    }


def _cmd_tables(opt: Options, argv: list) -> dict:
    t0 = time.time()
    what = opt.get("what")
    out = opt.get("out")
    points = opt.get("points", default=512, cast=int)
    if what == "psi-hat":
        lo = opt.get("xi-min", default=0.05, cast=float)
        hi = opt.get("xi-max", default=8.0, cast=float)
        xi = np.linspace(lo, hi, points)
        vals = meyer_wavelet.psi_hat(xi)
        header = ["xi", "re_psi_hat", "im_psi_hat"]
        rows = [[x, v.real, v.imag] for x, v in zip(xi, vals)]
        params = {"what": what, "xi_min": lo, "xi_max": hi, "points": points}
    elif what == "psi-v":
        v = opt.get("v", cast=float)
        alpha = opt.get("alpha", cast=float)
        ymax = opt.get("y-max", default=8.0, cast=float)
        ys = np.linspace(-ymax, ymax, points)
        vals = fractional_kernel.psi_v_values(v, alpha, ys)
        header = ["y", "psi_v"]
        rows = [[y, w] for y, w in zip(ys, vals)]
        params = {"what": what, "v": v, "alpha": alpha, "y_max": ymax,
                  "points": points}
    elif what == "kappa":
        alphas = opt.get(
            "alpha-grid", default=(0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
            cast=_floats,
        )
        vs = opt.get(
            "v-grid", default=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
            cast=_floats,
        )
        header = ["alpha", "v", "kappa"]
        rows = [[a, v, fractional_kernel.kappa(a, v)] for a in alphas for v in vs]
        params = {"what": what, "alpha_grid": list(alphas), "v_grid": list(vs)}
    else:
        raise ValueError(f"unknown table kind: {what!r}")
    manifest, digest = _start_manifest("tables", argv, [], params, [])
    fieldio.write_csv(out, header, rows, run=digest)
    _finish_manifest(manifest, [out], _manifest_path(opt, out), t0)
    return {
        "command": "tables", "what": what, "out": out, "manifest": digest,
        "rows": len(rows),
    }


def _cmd_ecf_check(opt: Options, argv: list) -> dict:
    t0 = time.time()
    seed = opt.get("seed", cast=int)
    alpha = opt.get("alpha", cast=float)
    hurst = opt.get("hurst", cast=_floats)
    t_point = opt.get("t", cast=_floats)
    samples = opt.get("samples", default=10_000, cast=int)
    count = opt.get("count", default=20_000, cast=int)
    tol = opt.get("tol", default=0.05, cast=float)
    out = opt.get("out")
    if len(t_point) != len(hurst):
        raise ValueError("--t and --hurst must have the same length")
    params = {"alpha": alpha, "hurst": hurst, "t": t_point, "samples": samples,
              "count": count, "tol": tol}
    manifest, digest = _start_manifest("ecf-check", argv, [seed], params, [])
    t_arr = np.asarray(t_point, dtype=float)
    xs = np.empty(samples)
    for r in range(samples):
        atoms = lepage.sample_atoms(
            derived_seed(seed, "replication", r), count, len(hurst)
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
    fieldio.write_csv(out, ["replication", "value"], list(enumerate(xs)),
                      run=digest)
    _finish_manifest(manifest, [out], _manifest_path(opt, out), t0)
    return {
        "command": "ecf-check", "out": out, "manifest": digest, "seed": seed,
        "alpha": alpha, "hurst": hurst, "t": t_point, "samples": samples,
        "ratio": ratio, "tol": tol, "passes": bool(abs(ratio - 1.0) <= tol),
        **summary_stats,
    }


def _cmd_holder(opt: Options, argv: list) -> dict:
    t0 = time.time()
    paths = opt.get("in", cast=_paths)
    axis = opt.get("axis", default="all")
    expect = opt.get("expect", default=None, cast=_floats)
    tol = opt.get("tol", default=0.1, cast=float)
    out = opt.get("out")
    manifest, digest = _start_manifest(
        "holder", argv, [], {"axis": str(axis), "expect": expect, "tol": tol},
        paths,
    )
    fields = [fieldio.read_field(p) for p in paths]
    axes = list(range(fields[0].dimension)) if axis == "all" else [int(axis)]
    rows = []
    means = {}
    for ax in axes:
        slopes = [geometry.holder_axis_exponent(f, ax) for f in fields]
        rows.extend([p, ax, s] for p, s in zip(paths, slopes))
        means[f"axis{ax}"] = float(np.mean(slopes))
    passes = True
    if expect is not None:
        for ax in axes:
            passes = passes and abs(means[f"axis{ax}"] - expect[ax]) <= tol
    fieldio.write_csv(out, ["file", "axis", "exponent"], rows, run=digest)
    _finish_manifest(manifest, [out], _manifest_path(opt, out), t0)
    return {
        "command": "holder", "out": out, "manifest": digest,
        "files": len(paths), "mean_exponents": means, "expect": expect,
        "tol": tol, "passes": bool(passes),
    }


def _cmd_localtime(opt: Options, argv: list) -> dict:
    t0 = time.time()
    paths = opt.get("in", cast=_paths)
    level = opt.get("level", default=0.0, cast=_floats)
    corner = opt.get("corner", cast=_floats)
    radii = opt.get("radii", cast=_floats)
    out = opt.get("out")
    level_arg = level[0] if len(level) == 1 else level
    params = {"level": level, "corner": corner, "radii": radii}
    manifest, digest = _start_manifest("localtime", argv, [], params, paths)
    fields = [fieldio.read_field(p) for p in paths]
    report = geometry.localtime_holder_report(fields, level_arg, corner, radii)
    rows = list(zip(report["r_values"], report["lmax_means"]))
    fieldio.write_csv(out, ["r", "mean_max_localtime"], rows, run=digest)
    _finish_manifest(manifest, [out], _manifest_path(opt, out), t0)
    return {"command": "localtime", "out": out, "manifest": digest,
            "files": len(paths), **report}


def _cmd_levelset_dim(opt: Options, argv: list) -> dict:
    t0 = time.time()
    what = opt.get("what", default="level-set")
    out = opt.get("out")
    scales = opt.get("scales", default=(2, 3, 4, 5, 6), cast=_ints)
    if what == "covering":
        hurst = opt.get("hurst", cast=_floats)
        points = opt.get("points", default=1024, cast=int)
        manifest, digest = _start_manifest(
            "levelset-dim",
            argv,
            [],
            {"what": what, "hurst": hurst, "points": points,
             "scales": list(scales)},
            [],
        )
        axis = np.linspace(0.0, 1.0, points)
        lattice = np.stack(
            np.meshgrid(axis, axis, indexing="ij"), -1
        ).reshape(-1, 2)
        est = geometry.box_count_dimension(
            lattice, ((0.0, 1.0), (0.0, 1.0)), tuple(hurst), tuple(scales)
        )
        Q = float(sum(1.0 / h for h in hurst))
        deviation = abs(est.slope / Q - 1.0)
        rows = list(zip(scales, est.box_counts))
        fieldio.write_csv(out, ["scale", "box_count"], rows, run=digest)
        _finish_manifest(manifest, [out], _manifest_path(opt, out), t0)
        return {
            "command": "levelset-dim", "what": what, "out": out,
            "manifest": digest, "slope": est.slope, "Q": Q,
            "deviation": deviation, "r_squared": est.r_squared,
            "passes": bool(deviation <= 0.05),
        }
    paths = opt.get("in", cast=_paths)
    level = opt.get("level", default=0.0, cast=float)
    expect = opt.get("expect", default=None, cast=float)
    tol = opt.get("tol", default=0.15, cast=float)
    params = {"what": what, "level": level, "scales": list(scales),
              "expect": expect, "tol": tol}
    manifest, digest = _start_manifest("levelset-dim", argv, [], params, paths)
    rows = []
    dims = []
    for p in paths:
        field = fieldio.read_field(p)
        pts = geometry.level_set(field, level)
        bounds = tuple((float(ax[0]), float(ax[-1])) for ax in field.axes)
        est = geometry.box_count_dimension(pts, bounds, "euclidean", tuple(scales))
        dims.append(est.slope)
        rows.append([p, pts.shape[0], est.slope, est.r_squared,
                     est.low_confidence])
    mean_dim = float(np.mean(dims))
    passes = True if expect is None else abs(mean_dim - expect) <= tol
    fieldio.write_csv(
        out, ["file", "points", "dimension", "r_squared", "low_confidence"],
        rows, run=digest,
    )
    _finish_manifest(manifest, [out], _manifest_path(opt, out), t0)
    return {
        "command": "levelset-dim", "what": what, "out": out, "manifest": digest,
        "files": len(paths), "mean_dimension": mean_dim, "expect": expect,
        "tol": tol, "passes": bool(passes),
    }


def _cmd_formula(opt: Options, argv: list) -> dict:
    hurst = opt.get("hurst", cast=_floats)
    d = opt.get("d", cast=int)
    dimF = opt.get("dimF", cast=float)
    report = geometry.dim_inverse_image_formula(hurst, d, dimF)
    summary = {
        "command": "formula", "hurst": hurst, "d": d, "dimF": dimF,
        "value": report["value"], "k": report["k"],
        "sandwich_holds": report["sandwich_holds"], "regime": report["regime"],
    }
    try:
        tau, beta = geometry.beta_tau(hurst, d)
        summary["tau"] = tau
        summary["beta"] = beta
    except ValueError:
        summary["tau"] = None
        summary["beta"] = None
    return summary


def _cmd_scaling_check(opt: Options, argv: list) -> dict:
    t0 = time.time()
    seed = opt.get("seed", cast=int)
    hurst = opt.get("hurst", cast=_floats)
    alpha = opt.get("alpha", cast=float)
    d = opt.get("d", default=1, cast=int)
    region = opt.get("region", cast=_bounds)
    n_scale = opt.get("n-scale", default=2, cast=int)
    reps = opt.get("reps", default=400, cast=int)
    n = opt.get("n", default=4, cast=int)
    M = opt.get("M", default=1.5, cast=float)
    shape = opt.get("shape", default=(128, 128), cast=_shape)
    level = opt.get("level", default=0.0, cast=float)
    out = opt.get("out")
    params = {
        "hurst": hurst, "alpha": alpha, "d": d,
        "region": [list(b) for b in region], "n_scale": n_scale, "reps": reps,
        "n": n, "M": M, "shape": list(shape), "level": level,
    }
    manifest, digest = _start_manifest("scaling-check", argv, [seed], params, [])
    seeds = [derived_seed(seed, "replication", r) for r in range(reps)]
    report = geometry.localtime_scaling_check(
        seeds, hurst, alpha, d, region, n_scale,
        synthesis.TruncationDomain(n, M), shape=shape, level=level,
    )
    rows = [["base", i, v] for i, v in enumerate(report.pop("base_values"))]
    rows += [["scaled", i, v] for i, v in enumerate(report.pop("scaled_values"))]
    fieldio.write_csv(out, ["group", "index", "max_localtime"], rows,
                      run=digest)
    _finish_manifest(manifest, [out], _manifest_path(opt, out), t0)
    return {"command": "scaling-check", "out": out, "manifest": digest,
            "seed": seed, **report}


def _cmd_report(opt: Options, argv: list) -> dict:
    from . import acceptance

    t0 = time.time()
    checks = opt.get("checks", default="all")
    out = opt.get("out", default=None)
    if checks != "all":
        checks = _ints(checks)
    results = acceptance.run_criteria(None if checks == "all" else checks)
    params = {"checks": "all" if checks == "all" else list(checks)}
    manifest, digest = _start_manifest("report", argv, [], params, [])
    rows = [
        [r["criterion"], "PASS" if r["passed"] else "FAIL", r["details"]]
        for r in results
    ]
    outputs = []
    if out:
        fieldio.write_csv(out, ["criterion", "status", "details"], rows,
                          run=digest)
        outputs.append(out)
    _finish_manifest(manifest, outputs, _manifest_path(opt, out), t0)
    failed = [r["criterion"] for r in results if not r["passed"]]
    return {
        "command": "report", "out": out, "manifest": digest,
        "total": len(results), "passed": len(results) - len(failed),
        "failed": failed, "all_passed": not failed,
        "checks": [r["criterion"] for r in results],
    }


_HANDLERS = {
    "synth": _cmd_synth,
    "coeffs": _cmd_coeffs,
    "tables": _cmd_tables,
    "ecf-check": _cmd_ecf_check,
    "holder": _cmd_holder,
    "localtime": _cmd_localtime,
    "levelset-dim": _cmd_levelset_dim,
    "formula": _cmd_formula,
    "scaling-check": _cmd_scaling_check,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablesheet",
        description="Synthesize anisotropic stable random sheets and run "
        "distributional, regularity, local-time, and dimension checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add(name, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--manifest", help="run-manifest path")
        p.add_argument("--threads", type=int, help="accepted by every "
                       "subcommand; outputs never depend on it")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    add("synth", [
        ("--seed", {"type": int}), ("--alpha", {"type": float}),
        ("--hurst", {}), ("--n", {"type": int}), ("--M", {"type": float}),
        ("--grid", {}), ("--bounds", {}), ("--d", {"type": int}),
        ("--count", {"type": int}), ("--out", {}),
    ])
    add("coeffs", [
        ("--seed", {"type": int}), ("--alpha", {"type": float}),
        ("--hurst", {}), ("--n", {"type": int}), ("--M", {"type": float}),
        ("--count", {"type": int}), ("--out", {}),
    ])
    add("tables", [
        ("--what", {"choices": ["psi-hat", "psi-v", "kappa"]}),
        ("--v", {"type": float}), ("--alpha", {"type": float}),
        ("--points", {"type": int}), ("--xi-min", {"type": float}),
        ("--xi-max", {"type": float}), ("--y-max", {"type": float}),
        ("--alpha-grid", {}), ("--v-grid", {}), ("--out", {}),
    ])
    add("ecf-check", [
        ("--seed", {"type": int}), ("--alpha", {"type": float}),
        ("--hurst", {}), ("--t", {}), ("--samples", {"type": int}),
        ("--count", {"type": int}), ("--tol", {"type": float}), ("--out", {}),
    ])
    add("holder", [
        ("--in", {}), ("--axis", {}), ("--expect", {}),
        ("--tol", {"type": float}), ("--out", {}),
    ])
    add("localtime", [
        ("--in", {}), ("--level", {}), ("--corner", {}), ("--radii", {}),
        ("--out", {}),
    ])
    add("levelset-dim", [
        ("--what", {"choices": ["level-set", "covering"]}), ("--in", {}),
        ("--level", {"type": float}), ("--scales", {}), ("--expect", {"type": float}),
        ("--tol", {"type": float}), ("--hurst", {}), ("--points", {"type": int}),
        ("--out", {}),
    ])
    add("formula", [
        ("--hurst", {}), ("--d", {"type": int}), ("--dimF", {"type": float}),
    ])
    add("scaling-check", [
        ("--seed", {"type": int}), ("--hurst", {}), ("--alpha", {"type": float}),
        ("--d", {"type": int}), ("--region", {}), ("--n-scale", {"type": int}),
        ("--reps", {"type": int}), ("--n", {"type": int}), ("--M", {"type": float}),
        ("--shape", {}), ("--level", {"type": float}), ("--out", {}),
    ])
    add("report", [
        ("--checks", {}), ("--out", {}),
    ])
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
        config = _load_config(args)
        summary = _HANDLERS[args.subcommand](Options(args, config), argv)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(fieldio.canonical_json(_clean(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
