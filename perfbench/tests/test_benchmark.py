"""Tests of the benchmark's own references, and a smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import cmath
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import references as ref  # noqa: E402
from stablesheet import lepage, meyer_wavelet  # noqa: E402


# --- kappa ---------------------------------------------------------------------


def test_kappa_closed_is_two_pi_at_one_half():
    assert ref.kappa_closed(0.5) == pytest.approx(2.0 * np.pi, rel=1e-15)


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7, 0.9])
def test_kappa_quadrature_matches_closed_form_at_alpha_2(H):
    assert ref.kappa_quad(2.0, H) == pytest.approx(ref.kappa_closed(H), rel=1e-7)


# --- direct sums --------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_direct_sum_on_a_pool_of_one_atom(alpha):
    atoms = lepage.LePageAtoms(
        seed=0, count=1, theta=0.5, gammas=np.array([0.7]),
        points=np.array([[1.3, -2.1]]), rotations=np.array([cmath.exp(0.4j)]),
    )
    t, H = (0.8, 1.1), (0.5, 0.7)
    w = complex(lepage.atom_weights(atoms, alpha)[0])
    by_hand = w
    for tl, xl, hl in zip(t, atoms.points[0], H):
        by_hand *= (cmath.exp(1j * tl * xl) - 1.0) * abs(xl) ** (-hl - 1.0 / alpha)
    value, scale = ref.direct_sum(atoms.points, [w], t, H, alpha)
    assert value == pytest.approx(by_hand.real, rel=1e-14)
    assert scale == pytest.approx(abs(by_hand), rel=1e-14)
    assert lepage.direct_field(atoms, t, H, alpha) == pytest.approx(value, rel=1e-13)
    grid = ref.direct_grid(atoms.points, [w], ([t[0]], [t[1]]), H, alpha)
    assert grid[0, 0] == pytest.approx(value, rel=1e-14)


def test_meyer_envelope_and_level_sums_match_the_package():
    x = np.concatenate([-np.geomspace(1e-3, 3e3, 400), np.geomspace(1e-3, 3e3, 400)])
    np.testing.assert_allclose(ref.meyer_envelope(x), meyer_wavelet.envelope(x), atol=1e-15)
    for n in (0, 3, 6):
        total = sum(np.asarray(meyer_wavelet.envelope(np.ldexp(x, -j))) ** 2
                    for j in range(-40, n + 1))
        np.testing.assert_allclose(ref.levels_up_to(x, n), total, atol=1e-12)


def test_projected_kernel_tends_to_the_kernel_and_is_exact_below_the_cut():
    t = np.linspace(0.05, 1.05, 7)
    x = np.array([-300.0, -40.0, -0.3, 0.002, 1.7, 250.0, 330.0])
    v = 0.6 + 1.0 / 1.5
    full = ref._kernel(t, x, v)
    below = np.abs(x) <= 2.0**6 * 4.0 * np.pi / 3.0
    proj = ref.projected_kernel(t, x, v, 6)
    np.testing.assert_array_equal(proj[:, below], full[:, below])
    np.testing.assert_allclose(ref.projected_kernel(t, x, v, 12), full, atol=1e-15)


# --- the command ------------------------------------------------------------------


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in bench_spec()["workloads"]])
def test_smoke_run_passes_its_checks(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = bench_spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(str(tmp_path), "--workload", "direct-mc", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
