"""Tests for truncated wavelet synthesis on grids."""

import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from stablesheet import _blas, _parallel
from stablesheet import lepage as lp
from stablesheet import synthesis as sy
from stablesheet._rng import component_seed
from stablesheet.fractional_kernel import table_for, w_coeff
from stablesheet.meyer_wavelet import envelope


def brute_force_series(atoms, H, alpha, trunc, axes, mode):
    """Naive sum of W1^T Re(C) W2 over the yielded scale pairs, W rebuilt per pair.

    Returns the field and the list of scale pairs it summed.
    """
    tables = [table_for(float(h), float(alpha), trunc.n, trunc.M) for h in H]
    ks = np.arange(-trunc.k_cap, trunc.k_cap + 1)
    out = np.zeros((axes[0].size, axes[1].size))
    pairs = []
    for j1, j2, block in lp.coefficient_blocks(atoms, alpha, trunc.n, trunc.M, mode):
        w1 = tables[0].psi(np.ldexp(axes[0], j1)[None, :] - ks[:, None])
        w1 = w1 - tables[0].psi(-ks.astype(float))[:, None]
        w2 = tables[1].psi(np.ldexp(axes[1], j2)[None, :] - ks[:, None])
        w2 = w2 - tables[1].psi(-ks.astype(float))[:, None]
        scale = 2.0 ** (-(j1 * H[0] + j2 * H[1]))
        out += scale * (w1.T @ np.real(block) @ w2)
        pairs.append((j1, j2))
    return out, pairs


def naive_occupied_pairs(atoms, n):
    """Scale pairs j1, j2 <= n where some atom's envelope is nonzero on both
    axes, found by scanning every level from below the smallest coordinate."""
    pts = atoms.points
    lo = int(np.floor(np.log2(np.min(np.abs(pts[pts != 0.0]))))) - 4
    held = [
        {j: np.asarray(envelope(np.ldexp(pts[:, axis], -j))) != 0.0
         for j in range(lo, n + 1)}
        for axis in (0, 1)
    ]
    return [
        (j1, j2)
        for j1 in range(lo, n + 1)
        for j2 in range(lo, n + 1)
        if np.any(held[0][j1] & held[1][j2])
    ]


def serial_atom_fold(atoms, H, alpha, trunc, axes):
    """The atom-route field formed in turn on this thread: every envelope on
    every atom, a fresh phase table per chunk of lp._COLUMN_CHUNK atoms, the
    conjugate copied per pair, and the fold of synthesis._accumulate."""
    plans = [sy.axis_plan(float(h), float(alpha), trunc.n, trunc.M, ax.tobytes())
             for h, ax in zip(H, axes)]
    ks = np.arange(-trunc.k_cap, trunc.k_cap + 1)
    weights = lp.atom_weights(atoms, alpha)
    pts = atoms.points
    lo = int(np.floor(np.log2(np.min(np.abs(pts[pts != 0.0]))))) - 4
    held = [{}, {}]
    for axis in (0, 1):
        for j in range(lo, trunc.n + 1):
            env = np.asarray(envelope(np.ldexp(pts[:, axis], -j)))
            if np.any(env != 0.0):
                held[axis][j] = env
    on_other = [np.any([env != 0.0 for env in held[1 - axis].values()], axis=0)
                for axis in (0, 1)]
    with _blas.one_thread():
        cols = [{}, {}]
        for axis in (0, 1):
            for j, env in held[axis].items():
                sel = (env != 0.0) & on_other[axis]
                if not sel.any():
                    continue
                x = np.ldexp(pts[sel, axis], -j)
                f = 2.0 ** (-j / alpha) * (env[sel] / np.sqrt(2.0 * np.pi)) * np.exp(-0.5j * x)
                if axis == 0:
                    f *= weights[sel]
                a = plans[axis].factors(j)[0]
                c = np.empty((a.shape[1], x.size), dtype=complex)
                for start in range(0, x.size, lp._COLUMN_CHUNK):
                    part = slice(start, start + lp._COLUMN_CHUNK)
                    phases = lp._lattice_phases(ks, x[part])
                    c[:, part] = (a.T @ phases.view(float)).view(complex)
                cols[axis][j] = (sel, c * f)
        blocks = []
        for j1, (s1, c1) in cols[0].items():
            for j2, (s2, c2) in cols[1].items():
                common = s1 & s2
                if common.any():
                    x = np.ascontiguousarray(c1[:, common[s1]])
                    y = np.ascontiguousarray(np.conj(c2[:, common[s2]]))
                    blocks.append((j1, j2, x.view(float) @ y.view(float).T))
        bases, starts = [], []
        for axis, plan in enumerate(plans):
            levels = sorted({b[axis] for b in blocks})
            parts = [plan.factors(j)[1] for j in levels]
            bases.append(np.hstack(parts))
            starts.append(dict(zip(levels, np.cumsum([0] + [p.shape[1] for p in parts]))))
        core = np.zeros((bases[0].shape[1], bases[1].shape[1]))
        for j1, j2, z in blocks:
            r1, r2 = starts[0][j1], starts[1][j2]
            core[r1:r1 + z.shape[0], r2:r2 + z.shape[1]] = z
        return (bases[0] @ core) @ bases[1].T


class TestTruncationDomain:
    def test_position_cap(self):
        assert sy.TruncationDomain(1, 1.0).k_cap == 4
        assert sy.TruncationDomain(6, 2.0).k_cap == 256
        assert sy.TruncationDomain(2, 0.6).k_cap == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            sy.TruncationDomain(-1, 1.0)
        with pytest.raises(ValueError):
            sy.TruncationDomain(2, 0.0)
        for M in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                sy.TruncationDomain(2, M)


class TestGridAxes:
    def test_inclusive_endpoints(self):
        (ax,) = sy.grid_axes(((0.2, 0.8),), (4,))
        assert ax[0] == 0.2 and ax[-1] == 0.8 and ax.size == 4

    def test_single_point_axis_sits_at_low_end(self):
        ax1, ax2 = sy.grid_axes(((0.3, 0.9), (0.1, 0.5)), (1, 3))
        assert np.array_equal(ax1, [0.3])
        assert ax2.size == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            sy.grid_axes(((0.0, 1.0),), (3, 3))
        with pytest.raises(ValueError):
            sy.grid_axes(((1.0, 0.5), (0.0, 1.0)), (3, 3))


class TestSynthesizeAgainstBruteForce:
    # a non-square grid, so that swapping the axes in the fold cannot pass
    GRID = (((0.2, 0.9), (0.1, 0.8)), (3, 5))

    def test_heavy_tail_route(self):
        trunc = sy.TruncationDomain(1, 1.0)
        H = (0.5, 0.7)
        field = sy.synthesize(H, 1.5, trunc, self.GRID, seed=42, count=60)
        atoms = lp.sample_atoms(component_seed(42, 0), 60, 2)
        brute, pairs = brute_force_series(atoms, H, 1.5, trunc, field.axes, "auto")
        scale = np.max(np.abs(brute))
        assert np.max(np.abs(field.component(0) - brute)) < 1e-12 * scale
        # the atom route reaches every coarse scale that holds an atom
        assert pairs == naive_occupied_pairs(atoms, trunc.n)
        assert min(j for pair in pairs for j in pair) < -trunc.n

    def test_gaussian_route(self):
        trunc = sy.TruncationDomain(1, 1.0)
        H = (0.5, 0.7)
        field = sy.synthesize(H, 2.0, trunc, self.GRID, seed=5)
        atoms = lp.sample_atoms(component_seed(5, 0), 1, 2)
        brute, pairs = brute_force_series(atoms, H, 2.0, trunc, field.axes, "auto")
        scale = np.max(np.abs(brute))
        assert np.max(np.abs(field.component(0) - brute)) < 1e-12 * scale
        assert pairs == [(j1, j2) for j1 in (-1, 0, 1) for j2 in (-1, 0, 1)]

    def test_isotropic_square_grid_builds_one_factor_per_level(self, monkeypatch):
        # equal H on equal axes: the fold takes W1_j from the axis-1 factors
        trunc = sy.TruncationDomain(1, 1.0)
        H = (0.6, 0.6)
        grid = (((0.2, 0.9), (0.2, 0.9)), (4, 4))
        built = []

        def counted(table, j, k, x):
            built.append(j)
            return w_coeff(table, j, k, x)

        sy.axis_plan.cache_clear()
        monkeypatch.setattr(sy, "w_coeff", counted)
        field = sy.synthesize(H, 1.5, trunc, grid, seed=42, count=60)
        atoms = lp.sample_atoms(component_seed(42, 0), 60, 2)
        brute, pairs = brute_force_series(atoms, H, 1.5, trunc, field.axes, "auto")
        scale = np.max(np.abs(brute))
        assert np.max(np.abs(field.component(0) - brute)) < 1e-12 * scale
        assert sorted(built) == sorted({j for pair in pairs for j in pair})

    def test_shared_atom_route(self):
        trunc = sy.TruncationDomain(1, 1.0)
        H = (0.5, 0.7)
        atoms = lp.sample_atoms(33, 200, 2)
        field = sy.synthesize_from_atoms(atoms, H, 2.0, trunc, self.GRID)
        brute, pairs = brute_force_series(atoms, H, 2.0, trunc, field.axes, "atoms")
        scale = np.max(np.abs(brute))
        assert np.max(np.abs(field.component(0) - brute)) < 1e-12 * scale
        assert pairs == naive_occupied_pairs(atoms, trunc.n)
        assert min(j for pair in pairs for j in pair) < -trunc.n
        assert field.meta["coefficient_law"] == "shared-atoms"


def kept_ranks(field, H, alpha, trunc):
    """Per axis, {j: r_j} of the plan that synthesized the field."""
    return [
        {j: a.shape[1] for j, (a, _) in sy.axis_plan(
            float(h), float(alpha), trunc.n, trunc.M, ax.tobytes()).levels.items()}
        for h, ax in zip(H, field.axes)
    ]


class TestTruncatedFactors:
    """Brute force on grids where the plan drops singular directions of W_j."""

    # K = 17 translations against 32 and 24 grid points
    GRID = (((0.2, 0.9), (0.1, 0.8)), (32, 24))
    TRUNC = sy.TruncationDomain(2, 1.0)
    H = (0.5, 0.7)

    def check(self, field, atoms, alpha, mode):
        brute, _ = brute_force_series(atoms, self.H, alpha, self.TRUNC, field.axes, mode)
        scale = np.max(np.abs(brute))
        assert np.max(np.abs(field.component(0) - brute)) < 1e-12 * scale
        full = [min(self.TRUNC.k_cap * 2 + 1, ax.size) for ax in field.axes]
        ranks = kept_ranks(field, self.H, alpha, self.TRUNC)
        assert all(r <= f for rk, f in zip(ranks, full) for r in rk.values())
        assert all(any(r < f for r in rk.values()) for rk, f in zip(ranks, full))

    def test_gaussian_route(self):
        field = sy.synthesize(self.H, 2.0, self.TRUNC, self.GRID, seed=5)
        self.check(field, lp.sample_atoms(component_seed(5, 0), 1, 2), 2.0, "auto")

    def test_heavy_tail_route(self):
        field = sy.synthesize(self.H, 1.5, self.TRUNC, self.GRID, seed=42, count=400)
        self.check(field, lp.sample_atoms(component_seed(42, 0), 400, 2), 1.5, "auto")

    def test_shared_atom_route(self):
        atoms = lp.sample_atoms(33, 400, 2)
        field = sy.synthesize_from_atoms(atoms, self.H, 2.0, self.TRUNC, self.GRID)
        self.check(field, atoms, 2.0, "atoms")


class TestPlanReuse:
    def test_second_call_builds_no_factor(self, monkeypatch):
        trunc = sy.TruncationDomain(2, 1.0)
        grid = (((0.1, 0.9), (0.1, 0.9)), (16, 12))
        for alpha in (1.5, 2.0):
            sy.synthesize((0.5, 0.7), alpha, trunc, grid, 3, count=300)
            built = []

            def counted(table, j, k, x):
                built.append(j)
                return w_coeff(table, j, k, x)

            with monkeypatch.context() as patch:
                patch.setattr(sy, "w_coeff", counted)
                sy.synthesize((0.5, 0.7), alpha, trunc, grid, 3, count=300)
            assert built == []

    def test_cache_stays_small_at_the_ensemble_config(self):
        # one 1024-point axis at n = 6, M = 1.25, shared by both axes
        sy.axis_plan.cache_clear()
        trunc = sy.TruncationDomain(6, 1.25)
        field = sy.synthesize((0.5, 0.5), 2.0, trunc,
                              (((0.05, 1.15), (0.05, 1.15)), (1024, 1024)), 1)
        assert sy.axis_plan.cache_info().currsize == 1
        plan = sy.axis_plan(0.5, 2.0, 6, 1.25, field.axes[0].tobytes())
        assert sorted(plan.levels) == list(range(-6, 7))
        assert plan.nbytes < 8_000_000


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestDeterminism:
    GRID = (((0.1, 0.9), (0.1, 0.9)), (48, 48))

    def test_rerun_is_bit_identical(self):
        trunc = sy.TruncationDomain(2, 1.0)
        a = sy.synthesize((0.5, 0.7), 1.5, trunc, self.GRID, 11, count=1500)
        b = sy.synthesize((0.5, 0.7), 1.5, trunc, self.GRID, 11, count=1500)
        assert np.array_equal(a.values, b.values)

    # synthesize(H, alpha, TRUNC, GRID, 11, count=COUNT) in a fresh process
    FRESH = (
        "import hashlib\n"
        "from stablesheet import synthesis as sy\n"
        "for alpha in (1.5, 2.0):\n"
        "    f = sy.synthesize((0.5, 0.7), alpha, sy.TruncationDomain(5, 1.0),\n"
        "                      (((0.1, 0.9), (0.1, 0.9)), (128, 128)), 11, count=2000)\n"
        "    print(hashlib.sha256(f.values.tobytes()).hexdigest())\n"
    )

    def test_bytes_do_not_depend_on_the_warm_plans(self):
        proc = subprocess.run([sys.executable, "-c", self.FRESH], capture_output=True,
                              text=True, env=_subprocess_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        fresh = proc.stdout.split()
        # large enough that stacking the extra cached levels changes the bytes
        trunc = sy.TruncationDomain(5, 1.0)
        grid = (((0.1, 0.9), (0.1, 0.9)), (128, 128))
        warm = []
        for alpha in (1.5, 2.0):
            # other pools and routes first build levels that seed 11 does not use:
            # a larger pool reaches coarser levels, and so does the shared-atom route
            sy.synthesize((0.5, 0.7), alpha, trunc, grid, 12, count=20000)
            sy.synthesize_from_atoms(lp.sample_atoms(4, 20000, 2), (0.5, 0.7), alpha,
                                     trunc, grid)
            sy.synthesize((0.5, 0.7), alpha, sy.TruncationDomain(2, 1.0), grid, 13, count=500)
            field = sy.synthesize((0.5, 0.7), alpha, trunc, grid, 11, count=2000)
            warm.append(hashlib.sha256(field.values.tobytes()).hexdigest())
        assert len(fresh) == 2
        assert warm == fresh

    def test_synth_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # alpha = 2: criterion 13's budget config; alpha = 1.5: an atom-route field
        argvs = {
            "gauss": ["--alpha", "2.0", "--hurst", "0.5,0.7", "--n", "6", "--M", "2.0",
                      "--grid", "256x256", "--bounds", "0.1,1.9x0.1,1.9"],
            "atoms": ["--alpha", "1.5", "--hurst", "0.5,0.7", "--n", "4", "--M", "1.25",
                      "--grid", "128x128", "--bounds", "0.1,1.1x0.1,1.1", "--count", "5000"],
        }
        digests = {}
        for threads in ("1", "2"):
            env = dict(_subprocess_env(), OPENBLAS_NUM_THREADS=threads)
            for name, argv in argvs.items():
                out = tmp_path / f"{name}-{threads}.zh"
                proc = subprocess.run(
                    [sys.executable, "-m", "stablesheet.cli", "synth", "--seed", "99",
                     *argv, "--out", str(out)],
                    capture_output=True, text=True, env=env, timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
                digests[name, threads] = hashlib.sha256(out.read_bytes()).hexdigest()
        for name in argvs:
            assert digests[name, "1"] == digests[name, "2"]

    # a fresh interpreter: scipy's OpenBLAS loads between two one_thread blocks
    LATE_BLAS = (
        "import ctypes, json\n"
        "from stablesheet import _blas\n"
        "with _blas.one_thread():\n"
        "    pass\n"
        "import scipy.interpolate\n"
        "with _blas.one_thread():\n"
        "    counts = {}\n"
        "    for line in open('/proc/self/maps'):\n"
        "        path = line.split()[-1]\n"
        "        if 'openblas' not in path.lower() or path in counts:\n"
        "            continue\n"
        "        lib = ctypes.CDLL(path)\n"
        "        for symbol in _blas._SYMBOLS:\n"
        "            get = getattr(lib, symbol.format('get'), None)\n"
        "            if get is not None:\n"
        "                get.restype, get.argtypes = ctypes.c_int, []\n"
        "                counts[path] = get()\n"
        "                break\n"
        "print(json.dumps(counts))\n"
    )

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_one_thread_covers_blas_loaded_after_its_first_use(self):
        env = dict(_subprocess_env(), OPENBLAS_NUM_THREADS="2")
        proc = subprocess.run([sys.executable, "-c", self.LATE_BLAS], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        assert counts and set(counts.values()) == {1}, counts

    # one worker, and more workers than cores with a short switch interval
    @pytest.mark.parametrize("workers", [1, 7])
    def test_gaussian_route_equals_a_serial_fold_of_the_blocks(self, workers, monkeypatch):
        # 129^2 coefficients per block: each stream is read in two chunks
        trunc = sy.TruncationDomain(5, 1.0)
        H = (0.5, 0.7)
        grid = (((0.1, 0.9), (0.15, 0.85)), (96, 80))
        monkeypatch.setattr(_parallel, "worker_count", lambda: workers)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            field = sy.synthesize(H, 2.0, trunc, grid, 21)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        plans = [sy.axis_plan(h, 2.0, trunc.n, trunc.M, ax.tobytes())
                 for h, ax in zip(H, field.axes)]
        levels = list(range(-trunc.n, trunc.n + 1))
        atoms = lp.sample_atoms(component_seed(21, 0), 1, 2)
        with _blas.one_thread():
            rows = []
            for j1, j2, c in lp.coefficient_blocks(atoms, 2.0, trunc.n, trunc.M):
                if j2 == -trunc.n:
                    rows.append([])
                a1, a2 = plans[0].factors(j1)[0], plans[1].factors(j2)[0]
                rows[-1].append(a1.T @ (np.real(c) @ a2))
            bases = [np.hstack([p.factors(j)[1] for j in levels]) for p in plans]
            serial = (bases[0] @ np.block(rows)) @ bases[1].T
        assert field.component(0).tobytes() == serial.tobytes()

    # one worker, and more workers than cores with a short switch interval; at
    # alpha = 1.5 through synthesize, at alpha = 2 through the shared-atom mode
    @pytest.mark.parametrize("workers", [1, 7])
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_atom_route_equals_a_serial_fold_of_the_columns(self, workers, alpha, monkeypatch):
        trunc = sy.TruncationDomain(4, 1.0)
        H = (0.5, 0.7)
        grid = (((0.1, 0.9), (0.15, 0.85)), (96, 80))
        # chunks of 256 atoms: the larger levels fill several, then a partial one
        monkeypatch.setattr(lp, "_COLUMN_CHUNK", 256)
        monkeypatch.setattr(_parallel, "worker_count", lambda: workers)
        callers = []
        envelope_fn, factors = lp.envelope, sy.AxisPlan.factors

        def traced_envelope(xi):
            callers.append(threading.get_ident())
            return envelope_fn(xi)

        def traced_factors(plan, j):
            callers.append(threading.get_ident())
            return factors(plan, j)

        monkeypatch.setattr(lp, "envelope", traced_envelope)
        monkeypatch.setattr(sy.AxisPlan, "factors", traced_factors)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            if alpha == 2.0:
                atoms = lp.sample_atoms(23, 3000, 2)
                field = sy.synthesize_from_atoms(atoms, H, alpha, trunc, grid)
            else:
                field = sy.synthesize(H, alpha, trunc, grid, 23, count=3000)
                atoms = lp.sample_atoms(component_seed(23, 0), 3000, 2)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert callers and set(callers) == {threading.get_ident()}
        serial = serial_atom_fold(atoms, H, alpha, trunc, field.axes)
        assert field.component(0).tobytes() == serial.tobytes()

    # the synth CLI, its process pinned to one CPU before the import
    PINNED = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from stablesheet import _parallel, cli\n"
        "assert _parallel.worker_count() == 1\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    # alpha = 2 takes the Gaussian route, alpha = 1.5 the atom route, whose
    # tasks make their own phase tables
    ROUTES = (
        ["--alpha", "2.0", "--n", "5", "--M", "1.25", "--grid", "160x128"],
        ["--alpha", "1.5", "--n", "4", "--M", "1.25", "--grid", "128x128", "--count", "5000"],
    )

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_synth_bytes_do_not_depend_on_the_affinity_mask(self, tmp_path):
        for route in self.ROUTES:
            argv = ["synth", "--seed", "7", "--hurst", "0.5,0.7", "--bounds", "0.1,1.1x0.1,1.1",
                    *route]
            digests = []
            for name, prefix in (("pinned", ["-c", self.PINNED]),
                                 ("free", ["-m", "stablesheet.cli"])):
                out = tmp_path / f"{name}.zh"
                proc = subprocess.run([sys.executable, *prefix, *argv, "--out", str(out)],
                                      capture_output=True, text=True, env=_subprocess_env(),
                                      timeout=300)
                assert proc.returncode == 0, proc.stderr
                digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
            assert digests[0] == digests[1], route

    def test_components_use_independent_streams(self):
        trunc = sy.TruncationDomain(1, 1.0)
        field = sy.synthesize(
            (0.5, 0.7), 2.0, trunc, (((0.1, 0.9), (0.1, 0.9)), (8, 8)), 3, d=2
        )
        assert field.component_count == 2
        assert field.meta["components"] == 2
        assert not np.array_equal(field.component(0), field.component(1))
        solo = sy.synthesize(
            (0.5, 0.7), 2.0, trunc, (((0.1, 0.9), (0.1, 0.9)), (8, 8)), 3, d=1
        )
        assert np.array_equal(solo.component(0), field.component(0))


class TestFieldInvariants:
    def test_zero_coordinates_vanish_exactly(self):
        trunc = sy.TruncationDomain(1, 1.0)
        grid = (((0.0, 0.8), (-0.5, 0.5)), (3, 3))
        for alpha, count in ((1.5, 300), (2.0, 1)):
            field = sy.synthesize((0.5, 0.7), alpha, trunc, grid, 9, count=count)
            assert np.all(field.component(0)[0, :] == 0.0)
            assert np.all(field.component(0)[:, 1] == 0.0)
            assert np.all(field.component(0)[1:, [0, 2]] != 0.0)

    def test_values_are_finite(self):
        trunc = sy.TruncationDomain(2, 1.0)
        field = sy.synthesize(
            (0.3, 0.9), 1.2, trunc, (((0.1, 0.9), (0.1, 0.9)), (12, 12)), 21, count=800
        )
        assert np.all(np.isfinite(field.values))

    def test_meta_records_the_run(self):
        trunc = sy.TruncationDomain(1, 1.0)
        field = sy.synthesize(
            (0.5, 0.7), 1.5, trunc, (((0.1, 0.9), (0.1, 0.9)), (4, 4)), 13, count=50
        )
        meta = field.meta
        assert meta["H"] == [0.5, 0.7]
        assert meta["alpha"] == 1.5
        assert meta["n"] == 1 and meta["M"] == 1.0
        assert meta["seed"] == 13 and meta["atoms"] == 50
        assert meta["coefficient_law"] == "lepage"
        assert meta["bounds"] == [[0.1, 0.9], [0.1, 0.9]]
        assert meta["shape"] == [4, 4]

    def test_gaussian_meta_has_no_atom_pool(self):
        trunc = sy.TruncationDomain(1, 1.0)
        field = sy.synthesize(
            (0.5, 0.7), 2.0, trunc, (((0.1, 0.9), (0.1, 0.9)), (4, 4)), 13
        )
        assert field.meta["atoms"] == 0
        assert field.meta["coefficient_law"] == "gaussian"


class TestValidation:
    GRID = (((0.1, 0.9), (0.1, 0.9)), (4, 4))

    def test_low_alpha_warns_but_runs(self):
        trunc = sy.TruncationDomain(1, 1.0)
        with pytest.warns(RuntimeWarning):
            field = sy.synthesize((0.5, 0.7), 0.8, trunc, self.GRID, 1, count=50)
        assert np.all(np.isfinite(field.values))

    def test_grid_outside_window_is_rejected(self):
        trunc = sy.TruncationDomain(1, 1.0)
        bad = (((0.1, 1.5), (0.1, 0.9)), (4, 4))
        with pytest.raises(ValueError):
            sy.synthesize((0.5, 0.7), 1.5, trunc, bad, 1, count=50)

    def test_bad_parameters_are_rejected(self):
        trunc = sy.TruncationDomain(1, 1.0)
        with pytest.raises(ValueError):
            sy.synthesize((0.5, 1.0), 1.5, trunc, self.GRID, 1, count=50)
        with pytest.raises(ValueError):
            sy.synthesize((0.5, 0.7), 2.5, trunc, self.GRID, 1, count=50)
        with pytest.raises(ValueError):
            sy.synthesize((0.5, 0.7, 0.5), 1.5, trunc, self.GRID, 1, count=50)
        with pytest.raises(ValueError):
            sy.synthesize((0.5, 0.7), 1.5, trunc, self.GRID, 1, d=0, count=50)

    @pytest.mark.parametrize("count", [0, -5])
    def test_atom_count_below_one_is_rejected(self, count):
        trunc = sy.TruncationDomain(1, 1.0)
        with pytest.raises(ValueError, match="count must be at least 1"):
            sy.synthesize((0.5, 0.7), 1.5, trunc, self.GRID, 1, count=count)
        # the Gaussian law draws no atoms, so the count is ignored there
        field = sy.synthesize((0.5, 0.7), 2.0, trunc, self.GRID, 1, count=count)
        assert field.meta["atoms"] == 0


class TestTransferCheck:
    def test_truncation_error_falls_with_level(self):
        atoms = lp.sample_atoms(3, 20000, 2)
        rep = sy.transfer_check(
            atoms,
            (0.5, 0.7),
            1.5,
            (2, 4, 6),
            1.0,
            (((0.05, 0.95), (0.05, 0.95)), (16, 16)),
        )
        assert rep["monotone_decreasing"] is True
        assert rep["final_residual"] < 0.05
        frozen = {2: 0.0824, 4: 0.0380, 6: 0.0104}
        for n, val in frozen.items():
            assert abs(rep["residuals"][n] - val) < 1e-3
        assert rep["levels"] == [2, 4, 6]


class TestHolderCauchyReport:
    GRID = (((0.1, 0.9), (0.1, 0.9)), (16, 16))

    def test_successive_differences_shrink(self):
        # The theorem predicts a decay of 2^-(min H - gamma) = 2^-0.2 per level,
        # less than the seed-to-seed spread of one pair (a factor ~1.7), and a
        # heavy-tailed atom entering at a coarse scale can raise one pair.
        # Four levels between the first and the last pair predict a factor
        # 2^0.8 ~ 1.74, which exceeds that spread.
        rep = sy.holder_cauchy_report(
            (0.5, 0.7), 1.5, (1, 2, 3, 4, 5, 6), 0.3, self.GRID,
            seeds=(11, 12, 13), M=1.0, count=2000,
        )
        assert rep["pairs"] == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        assert rep["decreased_on_average"] is True
        per_seed = rep["seminorm_per_seed"]
        assert all(row[-1] < row[0] for row in per_seed)
        frozen = [12.17611, 14.70448, 5.35910, 7.25693, 2.35917]
        for got, expect in zip(rep["seminorm_means"], frozen):
            assert abs(got - expect) < 1e-3

    def test_report_is_deterministic(self):
        kwargs = dict(seeds=(4, 5), M=1.0, count=500)
        a = sy.holder_cauchy_report((0.5, 0.7), 1.5, (1, 2), 0.2, self.GRID, **kwargs)
        b = sy.holder_cauchy_report((0.5, 0.7), 1.5, (1, 2), 0.2, self.GRID, **kwargs)
        assert a["seminorm_means"] == b["seminorm_means"]
        assert a["sup_per_seed"] == b["sup_per_seed"]

    def test_generator_seeds_are_all_used(self):
        kwargs = dict(M=1.0, count=500)
        listed = sy.holder_cauchy_report(
            (0.5, 0.7), 1.5, (1, 2), 0.2, self.GRID, seeds=(4, 5), **kwargs
        )
        streamed = sy.holder_cauchy_report(
            (0.5, 0.7), 1.5, (1, 2), 0.2, self.GRID, seeds=iter((4, 5)), **kwargs
        )
        assert streamed == listed
        assert streamed["seeds"] == [4, 5]

    def test_gamma_must_sit_below_min_hurst(self):
        with pytest.raises(ValueError):
            sy.holder_cauchy_report(
                (0.5, 0.7), 1.5, (1, 2), 0.5, self.GRID, seeds=(1,), count=100
            )
        with pytest.raises(ValueError):
            sy.holder_cauchy_report(
                (0.5, 0.7), 1.5, (1, 2), -0.1, self.GRID, seeds=(1,), count=100
            )

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            sy.holder_cauchy_report(
                (0.5, 0.7), 1.5, (3,), 0.3, self.GRID, seeds=(1,), count=100
            )


class TestTruncatedPointVariance:
    def test_deficit_shrinks_with_level(self):
        frozen = {2: 0.4229, 4: 0.7636, 6: 0.9049}
        last = 0.0
        for n, expect in frozen.items():
            rep = sy.truncated_point_variance(
                (0.5, 0.7), sy.TruncationDomain(n, 2.0), (1.0, 1.0)
            )
            assert abs(rep["ratio"] - expect) < 5e-4
            assert rep["variance"] < rep["target"]
            assert rep["ratio"] > last
            last = rep["ratio"]

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            sy.truncated_point_variance(
                (0.5, 0.7), sy.TruncationDomain(2, 1.0), (1.0,)
            )
