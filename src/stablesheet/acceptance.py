"""End-to-end acceptance checks for the stable-sheet toolkit.

Thirteen numbered checks cover wavelet validity, kernel quadrature oracles,
coefficient decay and growth, distributional correctness, operator scaling,
pathwise wavelet-vs-direct transfer, Holder convergence and regularity,
occupation and local-time behavior, dimension formulas and estimates, the
local-time scaling law, and engineering determinism. Every configuration
(seeds, grids, windows) is pinned so reruns are bit-reproducible.

Each ``criterion_N()`` returns ``{"criterion": N, "passed": bool,
"details": str}``; ``run_criteria`` executes a selection in order. The checks
are self-contained and write only to temporary directories.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time

import numpy as np

from . import fieldio
from . import fractional_kernel
from . import geometry
from . import lepage
from . import meyer_wavelet
from . import synthesis


def _result(criterion: int, passed: bool, details: str) -> dict:
    return {
        "criterion": int(criterion),
        "passed": bool(passed),
        "details": str(details),
    }


# --- 1: wavelet validity ----------------------------------------------------------


def criterion_1() -> dict:
    """Partition of unity, exact support confinement, taper reflection."""
    xi = np.linspace(1.0, 100.0, 19801)
    partition = meyer_wavelet.partition_residual(xi)
    ok_partition = partition < 1e-8

    lo, hi = meyer_wavelet.RING_LOWER, meyer_wavelet.RING_UPPER
    eps = 1e-12
    outside = np.array([0.0, 0.5, lo - eps, hi + eps, 10.0, 500.0, -0.5,
                        -(lo - eps), -(hi + eps), -500.0])
    inside = np.linspace(lo + 1e-6, hi - 1e-6, 1001)
    ok_support = (
        np.all(np.abs(meyer_wavelet.psi_hat(outside)) == 0.0)
        and np.all(np.abs(meyer_wavelet.psi_hat(inside)) > 0.0)
    )

    xs = np.linspace(0.0, 1.0, 20001)
    reflection = float(np.max(np.abs(
        np.asarray(meyer_wavelet.taper(xs))
        + np.asarray(meyer_wavelet.taper(1.0 - xs)) - 1.0
    )))
    ok_taper = reflection < 1e-12

    passed = ok_partition and ok_support and ok_taper
    details = (
        f"partition residual {partition:.2e} (<1e-8: {ok_partition}); "
        f"support exact: {ok_support}; "
        f"taper reflection {reflection:.2e} (<1e-12: {ok_taper})"
    )
    return _result(1, passed, details)


# --- 2: kernel quadrature oracles -------------------------------------------------


def criterion_2() -> dict:
    """kappa closed form, node-doubling stability, spline interpolation error."""
    kappa_err = abs(fractional_kernel.kappa(2.0, 0.5) - 2.0 * math.pi)
    ok_kappa = kappa_err <= 1e-6

    ys = np.linspace(0.0, 8.0, 33)
    doubling = float(np.max(np.abs(
        fractional_kernel.psi_v_values(0.5, 1.5, ys, nodes=400)
        - fractional_kernel.psi_v_values(0.5, 1.5, ys, nodes=800)
    )))
    ok_doubling = doubling < 1e-10

    table = fractional_kernel.psi_v_table(0.5, 1.5, 64.0)
    pts = np.random.default_rng(20240817).uniform(-64.0, 64.0, 100)
    interp = float(np.max(np.abs(
        table.psi(pts) - fractional_kernel.psi_v_values(0.5, 1.5, pts)
    )))
    ok_interp = interp < 1e-8

    passed = ok_kappa and ok_doubling and ok_interp
    details = (
        f"|kappa(2,0.5)-2pi| {kappa_err:.2e} (<=1e-6: {ok_kappa}); "
        f"node doubling {doubling:.2e} (<1e-10: {ok_doubling}); "
        f"interpolation {interp:.2e} at 100 points (<1e-8: {ok_interp})"
    )
    return _result(2, passed, details)


# --- 3: coefficient decay envelopes -----------------------------------------------


def criterion_3() -> dict:
    """Fitted decay constants finite and stable under scan-range doubling."""
    pairs = ((0.5, 1.5), (0.7, 1.0), (0.3, 2.0))
    parts = []
    passed = True
    for v, alpha in pairs:
        d1 = fractional_kernel.w_decay_constants(v, alpha, 6, 64)
        d2 = fractional_kernel.w_decay_constants(v, alpha, 12, 128)
        finite = all(math.isfinite(d[key]) and d[key] > 0.0
                     for d in (d1, d2) for key in ("c_pos", "c_neg"))
        drift = max(abs(d2["c_pos"] / d1["c_pos"] - 1.0),
                    abs(d2["c_neg"] / d1["c_neg"] - 1.0))
        ok = finite and drift <= 0.10
        passed = passed and ok
        parts.append(f"(v={v},alpha={alpha}): c_pos={d1['c_pos']:.3f} "
                     f"c_neg={d1['c_neg']:.3f} drift {drift:.2e} (ok: {ok})")
    return _result(3, passed, "; ".join(parts))


# --- 4: distributional correctness ------------------------------------------------


def criterion_4() -> dict:
    """Fitted scale (alpha<2) and variance (alpha=2) of direct-series samples."""
    t = (1.0, 1.0)
    H = (0.5, 0.7)
    parts = []
    passed = True
    alphas = (1.0, 1.5)
    samples = np.empty((len(alphas), 10_000))
    # one draw per pool, shared by both alphas; so is its phase table, which
    # the pool keeps for the point t (lepage.direct_field)
    for s in range(10_000):
        atoms = lepage.sample_atoms(60000 + s, 20000, 2)
        for row, alpha in zip(samples, alphas):
            row[s] = lepage.direct_field(atoms, t, H, alpha)
    for alpha, xs in zip(alphas, samples):
        est = geometry.estimate_stable_scale(xs, alpha)
        target = fractional_kernel.scale_sigma(t, None, H, alpha)
        dev = abs(est.sigma_hat / target - 1.0)
        ok = dev <= 0.05
        passed = passed and ok
        parts.append(f"alpha={alpha}: scale ratio {est.sigma_hat / target:.4f} "
                     f"(within 5%: {ok})")
    xs = np.empty(10_000)
    for s in range(10_000):
        atoms = lepage.sample_atoms(70000 + s, 4000, 2)
        xs[s] = lepage.direct_field(atoms, t, H, 2.0)
    target = 2.0 * fractional_kernel.scale_sigma(t, None, H, 2.0) ** 2
    dev = abs(float(np.var(xs)) / target - 1.0)
    ok = dev <= 0.05
    passed = passed and ok
    parts.append(f"alpha=2: variance ratio {float(np.var(xs)) / target:.4f} "
                 f"(within 5%: {ok})")
    return _result(4, passed, "; ".join(parts))


# --- 5: operator scaling ----------------------------------------------------------


def criterion_5() -> dict:
    """Fitted scale of the doubled argument vs 2^(H1+H2) times the base scale."""
    H = (0.5, 0.7)
    base = (0.35, 0.35)
    doubled = (0.7, 0.7)
    xs_b = np.empty(10_000)
    xs_d = np.empty(10_000)
    for s in range(10_000):
        atoms = lepage.sample_atoms(250000 + s, 5000, 2)
        vals = lepage.direct_field(atoms, np.array([base, doubled]), H, 1.5)
        xs_b[s], xs_d[s] = vals
    est_b = geometry.estimate_stable_scale(xs_b, 1.5)
    est_d = geometry.estimate_stable_scale(xs_d, 1.5)
    ratio = est_d.sigma_hat / (2.0 ** (H[0] + H[1]) * est_b.sigma_hat)
    passed = abs(ratio - 1.0) <= 0.05
    details = (f"alpha=1.5: scale(2t)/(2^(H1+H2) scale(t)) = {ratio:.4f} "
               f"(within 5%: {passed})")
    return _result(5, passed, details)


# --- 6: wavelet-vs-direct pathwise transfer ----------------------------------------


def criterion_6() -> dict:
    """Shared-atom truncation error strictly decreasing and < 10% at n=6.

    Both routes read one atom pool, and the series keeps every coarse scale
    that holds an atom of it (see lepage.coefficient_blocks), so the residual
    measures only the cut at fine scales j > n and translations |k| > k_cap.
    Cutting the coarse end at j >= -n as well would leave a floor that the
    fine levels cannot remove: about 26% at alpha=2 here.
    """
    atoms = lepage.sample_atoms(3, 20000, 2)
    grid = (((0.05, 0.95), (0.05, 0.95)), (64, 64))
    parts = []
    passed = True
    for alpha in (1.5, 2.0):
        rep = synthesis.transfer_check(atoms, (0.5, 0.7), alpha, (2, 4, 6),
                                       1.0, grid)
        ok = rep["monotone_decreasing"] and rep["final_residual"] < 0.10
        passed = passed and ok
        res = {n: round(rep["residuals"][n], 4) for n in (2, 4, 6)}
        parts.append(
            f"alpha={alpha}: residuals {res}, strictly decreasing: "
            f"{rep['monotone_decreasing']}, final<10%: "
            f"{rep['final_residual'] < 0.10}"
        )
    return _result(6, passed, "; ".join(parts))


# --- 7: Holder convergence diagnostics ---------------------------------------------


def criterion_7() -> dict:
    """C^gamma seminorm of successive refinements decreases on average."""
    rep = synthesis.holder_cauchy_report(
        (0.5, 0.7), 1.5, (3, 4, 5, 6), 0.4,
        (((0.1, 1.9), (0.1, 1.9)), (64, 64)),
        seeds=range(500, 510), M=2.0, count=10000,
    )
    means = [round(x, 3) for x in rep["seminorm_means"]]
    passed = bool(rep["decreased_on_average"])
    details = (f"gamma=0.4, 10 seeds: seminorm means {means} over refinements "
               f"{rep['pairs']}, decreasing on average: {passed}")
    return _result(7, passed, details)


# --- 8: coefficient growth --------------------------------------------------------


def criterion_8() -> dict:
    """Normalized coefficient max stable within 10% from level 4 to 6."""
    parts = []
    passed = True
    for alpha in (0.8, 1.5):
        for seed in (61, 62):
            atoms = lepage.sample_atoms(seed, 20000, 2)
            rep = lepage.coefficient_growth_report(atoms, 6, 1.0, alpha, 0.1)
            passed = passed and rep["stable"]
            parts.append(f"alpha={alpha} seed={seed}: ratio "
                         f"{rep['ratio']:.4f} (stable: {rep['stable']})")
    return _result(8, passed, "; ".join(parts))


# --- 9: directional regularity ----------------------------------------------------


def criterion_9() -> dict:
    """Axis Holder exponents near (0.5, 0.7); increment scales comparable."""
    H = (0.5, 0.7)
    line_axis = np.linspace(0.05, 1.05, 1024)
    fixed = np.array([0.6])
    means = []
    for axis in (0, 1):
        slopes = []
        for s in range(20):
            atoms = lepage.sample_atoms(100000 + 1000 * axis + s, 20000, 2)
            axes = (line_axis, fixed) if axis == 0 else (fixed, line_axis)
            vals = lepage.direct_field_grid(atoms, axes, H, 1.5)
            fg = synthesis.FieldGrid(axes=axes, values=vals[None],
                                     meta={"H": list(H), "alpha": 1.5})
            slopes.append(geometry.holder_axis_exponent(fg, axis))
        means.append(float(np.mean(slopes)))
    ok_axis = all(abs(means[i] - H[i]) <= 0.1 for i in (0, 1))

    ax_vals = np.array([0.5, 0.625, 0.75, 1.0])
    fields = []
    for s in range(1000):
        atoms = lepage.sample_atoms(20000 + s, 20000, 2)
        vals = lepage.direct_field_grid(atoms, (ax_vals, ax_vals), H, 1.5)
        fields.append(synthesis.FieldGrid(
            axes=(ax_vals, ax_vals), values=vals[None],
            meta={"H": list(H), "alpha": 1.5},
        ))
    pairs = []
    for h in (0.125, 0.25, 0.5):
        pairs.append(((0.5 + h, 0.5), (0.5, 0.5)))
        pairs.append(((0.5, 0.5 + h), (0.5, 0.5)))
    rep = geometry.scale_comparability_report(fields, pairs)
    ok_spread = rep["spread"] <= 2.0

    passed = ok_axis and ok_spread
    details = (
        f"axis exponents ({means[0]:.4f}, {means[1]:.4f}) vs (0.5, 0.7), "
        f"within 0.1: {ok_axis}; increment scale ratio spread "
        f"{rep['spread']:.4f} (<=2: {ok_spread})"
    )
    return _result(9, passed, details)


# --- 10: local times --------------------------------------------------------------

LOCALTIME_TRUNCATION_LEVEL = 6
LOCALTIME_SEEDS = range(800, 816)


def criterion_10() -> dict:
    """Occupation identity, local-time Holder slope, positivity at the level."""
    f = synthesis.synthesize(
        (0.5, 0.5), 2.0, synthesis.TruncationDomain(2, 1.0),
        (((0.05, 0.95), (0.05, 0.95)), (32, 32)), 77,
    )
    occ = geometry.occupation_density(f, ((0.2, 0.8), (0.2, 0.8)), bins=32)
    target = occ.grid_points * occ.cell_volume
    identity_rel = abs(occ.lebesgue_total / target - 1.0)
    ok_identity = identity_rel < 1e-12

    fields = geometry.synthesize_ensemble(
        (0.5, 0.5), 2.0,
        synthesis.TruncationDomain(LOCALTIME_TRUNCATION_LEVEL, 1.25),
        (((0.05, 1.15), (0.05, 1.15)), (1024, 1024)),
        seeds=LOCALTIME_SEEDS,
    )
    rep = geometry.localtime_holder_report(
        fields, 0.0, (0.1, 0.1), (0.8, 0.4, 0.2, 0.1, 0.05),
    )
    del fields
    ok_slope = bool(rep["passes"])

    positive = 0
    trunc = synthesis.TruncationDomain(4, 1.25)
    for s in range(100):
        g = synthesis.synthesize(
            (0.5, 0.5), 2.0, trunc,
            (((0.05, 1.15), (0.05, 1.15)), (256, 256)), 900 + s,
        )
        if geometry.occupation_density(
                g, ((0.1, 1.1), (0.1, 1.1)), bins=64).at(0.0) > 0.0:
            positive += 1
    ok_positive = positive >= 50

    passed = ok_identity and ok_slope and ok_positive
    details = (
        f"occupation identity rel err {identity_rel:.2e} (exact: "
        f"{ok_identity}); Holder slope {rep['slope']:.4f} vs threshold "
        f"{rep['threshold']:.4f} (passes: {ok_slope}); positivity "
        f"{positive}/100 (>=50: {ok_positive})"
    )
    return _result(10, passed, details)


# --- 11: dimension formula and estimates -------------------------------------------

LEVELSET_TRUNCATION_LEVEL = 6
LEVELSET_SEEDS = range(1000, 1010)
LEVELSET_SCALES = (2, 3, 4, 5, 6)


def _formula_coherence(n_triples: int = 100) -> int:
    """Mismatches between the formula and an independent brute-force min."""
    rng = np.random.default_rng(5150)
    mismatches = 0
    done = 0
    while done < n_triples:
        N = int(rng.integers(1, 4))
        H = np.sort(rng.uniform(0.05, 0.95, N))
        d = int(rng.integers(1, 3))
        dimF = float(rng.uniform(0.0, d)) if rng.random() < 0.5 else 0.0
        deficit = d - dimF
        if float(np.sum(1.0 / H)) <= deficit:
            continue
        done += 1
        rep = geometry.dim_inverse_image_formula(H, d, dimF)
        candidates = [
            float(np.sum(H[k - 1] / H[:k]) + N - k - H[k - 1] * deficit)
            for k in range(1, N + 1)
        ]
        ok = (
            rep["regime"] == "standard"
            and abs(rep["value"] - min(candidates)) < 1e-10
            and rep["sandwich_holds"]
        )
        if ok and dimF == 0.0 and float(np.sum(1.0 / H)) > d:
            tau, beta = geometry.beta_tau(H, d)
            ok = abs(rep["value"] - beta) < 1e-10
        if not ok:
            mismatches += 1
    return mismatches


def criterion_11() -> dict:
    """Formula coherence, level-set box dimension, covering exponent."""
    mismatches = _formula_coherence(100)
    ref_a = geometry.dim_inverse_image_formula((0.4, 0.6), 1, 0.0)["value"]
    ref_b = geometry.dim_inverse_image_formula((0.6, 0.6), 1, 0.0)["value"]
    ok_formula = (mismatches == 0 and abs(ref_a - 1.6) < 1e-12
                  and abs(ref_b - 1.4) < 1e-12)

    bounds = ((0.05, 1.05), (0.05, 1.05))
    trunc = synthesis.TruncationDomain(LEVELSET_TRUNCATION_LEVEL, 1.25)
    dim_means = {}
    ok_dim = True
    for alpha in (2.0, 1.5):
        dims = []
        for s in LEVELSET_SEEDS:
            f = synthesis.synthesize((0.6, 0.6), alpha, trunc,
                                     (bounds, (1024, 1024)), s, count=20000)
            pts = geometry.level_set(f, 0.0)
            del f
            est = geometry.box_count_dimension(pts, bounds, "euclidean",
                                               LEVELSET_SCALES)
            dims.append(est.slope)
        dim_means[alpha] = float(np.mean(dims))
        ok_dim = ok_dim and abs(dim_means[alpha] - 1.4) <= 0.15

    grid = np.stack(
        np.meshgrid(np.linspace(0.0, 1.0, 1024), np.linspace(0.0, 1.0, 1024),
                    indexing="ij"), -1,
    ).reshape(-1, 2)
    est = geometry.box_count_dimension(grid, ((0.0, 1.0), (0.0, 1.0)),
                                       (0.6, 0.6), (1, 2, 3, 4, 5))
    Q = 1.0 / 0.6 + 1.0 / 0.6
    cover_dev = abs(est.slope / Q - 1.0)
    ok_cover = cover_dev <= 0.05

    passed = ok_formula and ok_dim and ok_cover
    details = (
        f"formula mismatches {mismatches}/100, references (1.6, 1.4) exact: "
        f"{ok_formula}; level-set dims alpha=2: {dim_means[2.0]:.4f}, "
        f"alpha=1.5: {dim_means[1.5]:.4f} vs 1.4+-0.15: {ok_dim}; covering "
        f"slope {est.slope:.4f} vs Q={Q:.4f}, dev {cover_dev:.2%} (<=5%: "
        f"{ok_cover})"
    )
    return _result(11, passed, details)


# --- 12: local-time scaling law ----------------------------------------------------


def criterion_12() -> dict:
    """Two-sample KS of rescaled local-time maxima under dilation."""
    rep = geometry.localtime_scaling_check(
        range(7000, 7400), (0.5, 0.5), 2.0, 1,
        ((0.05, 0.175), (0.05, 0.175)), 2,
        synthesis.TruncationDomain(4, 1.5), shape=(128, 128),
    )
    passed = bool(rep["passes"])
    details = (
        f"n_scale=2, 200 seeds per sample, alpha=2, H=(0.5,0.5), d=1: KS "
        f"p={rep['p_value']:.4f} (> 0.01: {passed}), statistic "
        f"{rep['statistic']:.4f}, exponent {rep['exponent']:.1f}"
    )
    return _result(12, passed, details)


# --- 13: engineering ---------------------------------------------------------------


def _run_cli(argv: list) -> tuple:
    from . import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def _artifact_bytes(paths: list) -> list:
    out = []
    for p in paths:
        with open(p, "rb") as fh:
            out.append(fh.read())
    return out


def criterion_13() -> dict:
    """Determinism of every subcommand, lossless round-trip, synthesis budget."""
    problems = []
    with tempfile.TemporaryDirectory() as td:
        base = os.path.join(td, "f.zh")
        rc, _ = _run_cli([
            "synth", "--seed", 7, "--alpha", 2.0, "--hurst", "0.5,0.7",
            "--n", 2, "--M", 1.0, "--grid", "256x256",
            "--bounds", "0.05,0.95x0.05,0.95", "--out", base,
        ])
        if rc != 0:
            problems.append("baseline synth failed")
        jobs = {
            "synth": (["synth", "--seed", 7, "--alpha", 1.5, "--hurst",
                       "0.5,0.7", "--n", 2, "--M", 1.0, "--grid", "8x8",
                       "--bounds", "0.1,0.9x0.1,0.9", "--count", 500,
                       "--out", "{out}"], "s.zh"),
            "coeffs": (["coeffs", "--seed", 9, "--alpha", 1.5, "--hurst",
                        "0.5,0.7", "--n", 2, "--M", 1.0, "--count", 500,
                        "--out", "{out}"], "c.bin"),
            "tables": (["tables", "--what", "kappa", "--alpha-grid",
                        "1.5,2.0", "--v-grid", "0.3,0.5", "--out", "{out}"],
                       "t.csv"),
            "ecf-check": (["ecf-check", "--seed", 5, "--alpha", 2.0,
                           "--hurst", "0.5,0.5", "--t", "1,1", "--samples",
                           40, "--count", 200, "--out", "{out}"], "e.csv"),
            "holder": (["holder", "--in", base, "--axis", "all", "--out",
                        "{out}"], "h.csv"),
            "localtime": (["localtime", "--in", base, "--level", 0.0,
                           "--corner", "0.1,0.1", "--radii", "0.4,0.2,0.1",
                           "--out", "{out}"], "l.csv"),
            "levelset-dim": (["levelset-dim", "--what", "level-set", "--in",
                              base, "--scales", "1,2,3", "--out", "{out}"],
                             "d.csv"),
            "formula": (["formula", "--hurst", "0.4,0.6", "--d", 1,
                         "--dimF", 0.0], None),
            "scaling-check": (["scaling-check", "--seed", 31, "--hurst",
                               "0.5,0.5", "--alpha", 2.0, "--d", 1,
                               "--region", "0.05,0.175x0.05,0.175",
                               "--n-scale", 2, "--reps", 400, "--n", 1,
                               "--M", 1.5, "--shape", "8x8", "--out",
                               "{out}"], "k.csv"),
            "report": (["report", "--checks", "1", "--out", "{out}"],
                       "r.csv"),
        }
        for name, (argv, artifact) in jobs.items():
            runs = []
            for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
                args = list(argv)
                paths = []
                if artifact is not None:
                    path = os.path.join(td, f"{tag}_{artifact}")
                    args = [path if a == "{out}" else a for a in args]
                    paths.append(path)
                rc, stdout = _run_cli(args + ["--threads", threads])
                if rc != 0:
                    problems.append(f"{name} run {tag} exited {rc}")
                    break
                summary = stdout.replace(paths[0], "OUT") if paths else stdout
                runs.append((summary, _artifact_bytes(paths)))
            if len(runs) == 3:
                if not (runs[0] == runs[1] == runs[2]):
                    problems.append(f"{name} output varies across "
                                    "reruns or thread counts")
        ok_identical = not problems

        field = fieldio.read_field(base)
        rewritten = os.path.join(td, "rt.zh")
        fieldio.write_field(field, rewritten)
        again = fieldio.read_field(rewritten)
        ok_roundtrip = (
            np.array_equal(field.values, again.values)
            and all(np.array_equal(a, b)
                    for a, b in zip(field.axes, again.axes))
            and dict(field.meta) == dict(again.meta)
        )

    t0 = time.perf_counter()
    synthesis.synthesize(
        (0.5, 0.7), 2.0, synthesis.TruncationDomain(6, 2.0),
        (((0.1, 1.9), (0.1, 1.9)), (256, 256)), 99,
    )
    elapsed = time.perf_counter() - t0
    ok_budget = elapsed < 60.0

    passed = ok_identical and ok_roundtrip and ok_budget
    details = (
        f"bit-identical reruns and thread counts for all 10 subcommands: "
        f"{ok_identical}"
        + (f" ({'; '.join(problems)})" if problems else "")
        + f"; round-trip lossless: {ok_roundtrip}; 256x256 synthesis at "
        f"n=6, M=2: {elapsed:.1f}s (<60s: {ok_budget})"
    )
    return _result(13, passed, details)


# --- runner -----------------------------------------------------------------------

CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
}


def run_criteria(ids: object = None) -> list:
    """Run the selected checks (all thirteen when ids is None), in order."""
    if ids is None:
        selected = sorted(CRITERIA)
    else:
        selected = [int(i) for i in ids]
        unknown = [i for i in selected if i not in CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}; valid ids are "
                             f"{sorted(CRITERIA)}")
    return [CRITERIA[i]() for i in selected]
