"""Tests for the file formats and the command-line front end."""

import contextlib
import csv
import io
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesheet import cli
from stablesheet import fieldio
from stablesheet import lepage
from stablesheet import synthesis as sy
from stablesheet._rng import derived_seed


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def fresh_env():
    """The environment for a fresh interpreter that imports this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def small_field(seed=42):
    return sy.synthesize(
        (0.5, 0.7), 1.5, sy.TruncationDomain(2, 1.0),
        (((0.1, 0.9), (0.1, 0.9)), (8, 8)), seed, count=500,
    )


def reader_field():
    # large enough for every reader: holder needs 256 points per axis
    return sy.synthesize(
        (0.5, 0.7), 2.0, sy.TruncationDomain(2, 1.0),
        (((0.05, 0.95), (0.05, 0.95)), (256, 256)), 7,
    )


def rewrite_header(tmp_path, name, edit, field=None):
    """A field file (small_field() by default) whose JSON header is replaced
    by ``edit(header)``."""
    src = tmp_path / "src.zh"
    fieldio.write_field(small_field() if field is None else field, str(src))
    blob = src.read_bytes()
    hlen = struct.unpack_from("<I", blob, 8)[0]
    raw = fieldio.canonical_json(edit(json.loads(blob[12 : 12 + hlen]))).encode()
    path = tmp_path / name
    path.write_bytes(
        fieldio.FIELD_MAGIC + struct.pack("<I", len(raw)) + raw + blob[12 + hlen :]
    )
    return str(path)


def header_as_array(header):
    return [header]


def huge_shape(header):
    # the reader must refuse it from the payload size, before building axes
    header["meta"]["shape"] = [256, 10**12]
    return header


def no_components(header):
    header["meta"]["components"] = 0
    return header


def version_as_list(header):
    header["format_version"] = [2]
    return header


def components_as_list(header):
    header["meta"]["components"] = [1]
    return header


def axes_as_number(header):
    header["axes"] = 5
    return header


FORMAT_ERRORS = [header_as_array, no_components, huge_shape, version_as_list,
                 components_as_list, axes_as_number]


def no_hurst(header):
    del header["meta"]["H"]
    return header


def no_alpha(header):
    del header["meta"]["alpha"]
    return header


def scalar_hurst(header):
    header["meta"]["H"] = 0.5
    return header


# the subcommands that read .zh files, with the flags each needs besides
# --in and --out; on the unedited reader_field() file each exits 0
READERS = {
    "holder": [],
    "levelset-dim": [],
    "localtime": ["--corner", "0.1,0.1", "--radii", "0.4,0.2,0.1"],
}


class TestFieldFormat:
    def test_roundtrip_is_lossless(self, tmp_path):
        f = small_field()
        path = str(tmp_path / "f.zh")
        fieldio.write_field(f, path, run="d" * 64)
        g = fieldio.read_field(path)
        assert g.meta == f.meta
        assert all(np.array_equal(a, b) for a, b in zip(f.axes, g.axes))
        assert np.array_equal(f.values, g.values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        f = small_field()
        p1, p2 = str(tmp_path / "a.zh"), str(tmp_path / "b.zh")
        fieldio.write_field(f, p1)
        fieldio.write_field(f, p2)
        assert (tmp_path / "a.zh").read_bytes() == (tmp_path / "b.zh").read_bytes()

    def test_custom_axes_roundtrip(self, tmp_path):
        ax = np.array([0.1, 0.3, 0.35])
        f = sy.FieldGrid(
            axes=(ax, ax), values=np.arange(9.0).reshape(1, 3, 3),
            meta={"components": 1},
        )
        path = str(tmp_path / "c.zh")
        fieldio.write_field(f, path)
        g = fieldio.read_field(path)
        assert all(np.array_equal(a, b) for a, b in zip(f.axes, g.axes))
        assert np.array_equal(f.values, g.values)

    def test_bad_magic(self, tmp_path):
        f = small_field()
        path = str(tmp_path / "f.zh")
        fieldio.write_field(f, path)
        blob = (tmp_path / "f.zh").read_bytes()
        (tmp_path / "bad.zh").write_bytes(b"XXFIELD1" + blob[8:])
        with pytest.raises(fieldio.BadMagicError):
            fieldio.read_field(str(tmp_path / "bad.zh"))

    def test_truncated_payload(self, tmp_path):
        f = small_field()
        path = str(tmp_path / "f.zh")
        fieldio.write_field(f, path)
        blob = (tmp_path / "f.zh").read_bytes()
        (tmp_path / "cut.zh").write_bytes(blob[:-16])
        with pytest.raises(fieldio.TruncatedPayloadError):
            fieldio.read_field(str(tmp_path / "cut.zh"))

    def test_newer_revision_is_refused(self, tmp_path):
        path = rewrite_header(
            tmp_path, "new.zh",
            lambda h: {**h, "format_version": fieldio.FORMAT_VERSION + 1},
        )
        with pytest.raises(fieldio.VersionMismatchError):
            fieldio.read_field(path)

    @pytest.mark.parametrize("edit", FORMAT_ERRORS)
    def test_malformed_header_is_a_format_error(self, tmp_path, edit):
        # a header must be a JSON object, declare at least one component, and
        # hold numbers where the format puts numbers
        path = rewrite_header(tmp_path, "bad.zh", edit)
        with pytest.raises(fieldio.FieldFormatError):
            fieldio.read_field(path)

    def test_coefficient_roundtrip(self, tmp_path):
        atoms = lepage.sample_atoms(3, 40, 2, 1.5)
        path = str(tmp_path / "c.bin")
        fieldio.write_coefficients(atoms, 1.5, 1, 1.0, path, hurst=(0.5, 0.7))
        header, blocks = fieldio.read_coefficients(path)
        ref = {
            (j1, j2): b for j1, j2, b in lepage.coefficient_blocks(atoms, 1.5, 1, 1.0)
        }
        assert set(blocks) == set(ref)
        for key, block in ref.items():
            assert np.array_equal(blocks[key], block.astype(np.complex64))
        assert header["count"] == 40 and header["seed"] == 3

    def test_csv_quoting(self, tmp_path):
        path = str(tmp_path / "x.csv")
        fieldio.write_csv(path, ["a", "b"], [[1, "x,y"], [2.5, 'q"t']])
        raw = (tmp_path / "x.csv").read_bytes()
        assert raw == b'a,b\r\n1,"x,y"\r\n2.5,"q""t"\r\n'

    def test_manifest_digest_ignores_wall_clock_and_outputs(self, tmp_path):
        m = fieldio.RunManifest(
            subcommand="synth", command=["synth", "--seed", "7"], seeds=[7],
            parameters={"alpha": 1.5},
        )
        d1 = m.digest()
        m.wall_clock_seconds = 123.0
        m.output_digests["out"] = "ff"
        assert m.digest() == d1
        path = str(tmp_path / "m.json")
        assert m.write(path) == d1
        record = json.loads((tmp_path / "m.json").read_text())
        assert record["manifest_digest"] == d1
        assert record["wall_clock_seconds"] == 123.0


SYNTH_ARGS = [
    "synth", "--seed", "7", "--alpha", "1.5", "--hurst", "0.5,0.7",
    "--n", "2", "--M", "1.0", "--grid", "8x8", "--bounds", "0.1,0.9x0.1,0.9",
    "--count", "500",
]


class TestCliSynth:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.zh"), str(tmp_path / "b.zh")
        code1, out1 = run_cli(SYNTH_ARGS + ["--out", a])
        code2, out2 = run_cli(SYNTH_ARGS + ["--out", b])
        assert code1 == code2 == 0
        assert (tmp_path / "a.zh").read_bytes() == (tmp_path / "b.zh").read_bytes()
        assert json.loads(out1)["manifest"] == json.loads(out2)["manifest"]

    def test_threads_do_not_change_bytes(self, tmp_path):
        a, c = str(tmp_path / "a.zh"), str(tmp_path / "c.zh")
        run_cli(SYNTH_ARGS + ["--out", a])
        run_cli(SYNTH_ARGS + ["--threads", "4", "--out", c])
        assert (tmp_path / "a.zh").read_bytes() == (tmp_path / "c.zh").read_bytes()

    def test_artifact_references_manifest_digest(self, tmp_path):
        path = str(tmp_path / "a.zh")
        code, out = run_cli(SYNTH_ARGS + ["--out", path])
        assert code == 0
        summary = json.loads(out)
        blob = (tmp_path / "a.zh").read_bytes()
        hlen = struct.unpack_from("<I", blob, 8)[0]
        header = json.loads(blob[12 : 12 + hlen])
        assert header["run"] == summary["manifest"]
        manifest = json.loads((tmp_path / "a.zh.manifest.json").read_text())
        assert manifest["manifest_digest"] == summary["manifest"]
        assert path in manifest["output_digests"]

    def test_out_of_window_grid_is_validation_failure(self, tmp_path):
        code, _ = run_cli(
            ["synth", "--seed", "1", "--alpha", "1.5", "--hurst", "0.5,0.7",
             "--n", "2", "--M", "1.0", "--grid", "4x4",
             "--bounds", "0.1,3.0x0.1,0.9", "--count", "100",
             "--out", str(tmp_path / "x.zh")]
        )
        assert code == 2


class TestCliCoeffs:
    def test_coeffs_file_matches_library_blocks(self, tmp_path):
        path = str(tmp_path / "c.bin")
        code, out = run_cli(
            ["coeffs", "--seed", "3", "--alpha", "1.5", "--hurst", "0.5,0.7",
             "--n", "1", "--M", "1.0", "--count", "40", "--out", path]
        )
        assert code == 0
        summary = json.loads(out)
        header, blocks = fieldio.read_coefficients(path)
        # the atom pool that synth --seed 3 --count 40 draws
        atoms = lepage.sample_atoms(3, 40, 2)
        ref = {
            (j1, j2): b for j1, j2, b in lepage.coefficient_blocks(atoms, 1.5, 1, 1.0)
        }
        assert summary["blocks"] == len(ref) and summary["k_cap"] == 4
        assert set(blocks) == set(ref)
        for key, block in ref.items():
            assert np.array_equal(blocks[key], block.astype(np.complex64))


class TestCliTables:
    def test_psi_hat_dump(self, tmp_path):
        path = str(tmp_path / "t.csv")
        code, out = run_cli(
            ["tables", "--what", "psi-hat", "--points", "64", "--out", path]
        )
        assert code == 0 and json.loads(out)["rows"] == 64
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "xi,re_psi_hat,im_psi_hat,manifest"
        assert len(lines) == 65

    def test_psi_v_dump(self, tmp_path):
        path = str(tmp_path / "t.csv")
        code, out = run_cli(
            ["tables", "--what", "psi-v", "--v", "0.5", "--alpha", "1.5",
             "--points", "32", "--out", path]
        )
        assert code == 0 and json.loads(out)["rows"] == 32

    def test_kappa_dump(self, tmp_path):
        path = str(tmp_path / "t.csv")
        code, out = run_cli(
            ["tables", "--what", "kappa", "--alpha-grid", "1.0,2.0",
             "--v-grid", "0.5", "--out", path]
        )
        assert code == 0 and json.loads(out)["rows"] == 2
        lines = (tmp_path / "t.csv").read_text().splitlines()
        # kappa(2, 0.5) = 2 pi
        assert lines[0] == "alpha,v,kappa,manifest"
        val = float(lines[2].split(",")[2])
        assert abs(val - 2.0 * np.pi) < 1e-6


class TestCliEstimators:
    @pytest.fixture()
    def field_files(self, tmp_path):
        paths = []
        for seed in (11, 12):
            path = str(tmp_path / f"f{seed}.zh")
            code, _ = run_cli(
                ["synth", "--seed", seed, "--alpha", "2", "--hurst", "0.5,0.5",
                 "--n", "3", "--M", "1.0", "--grid", "256x256",
                 "--bounds", "0.05,0.95x0.05,0.95", "--out", path]
            )
            assert code == 0
            paths.append(path)
        return paths

    def test_holder(self, field_files, tmp_path):
        out = str(tmp_path / "h.csv")
        code, text = run_cli(
            ["holder", "--in", ",".join(field_files), "--axis", "all",
             "--out", out]
        )
        assert code == 0
        summary = json.loads(text)
        assert set(summary["mean_exponents"]) == {"axis0", "axis1"}
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "file,axis,exponent,manifest"
        assert len(lines) == 1 + 2 * len(field_files)

    # argv ({fields}: two 2-D field files of 256 x 256 points); each names no
    # input file, or gives fewer --expect exponents than the axes it checks
    NOTHING_TO_CHECK = {
        "holder-in-names-no-file": ["holder", "--in", ","],
        "localtime-in-names-no-file": [
            "localtime", "--in", ",", "--corner", "0.1,0.1", "--radii", "0.4,0.2",
        ],
        "levelset-dim-in-names-no-file": ["levelset-dim", "--in", ","],
        # a loose tol lets axis 0 pass, so all() goes on to axis 1
        "holder-expect-shorter-than-all-axes": [
            "holder", "--in", "{fields}", "--axis", "all", "--expect", "0.5",
            "--tol", "100",
        ],
        "holder-expect-misses-the-axis": [
            "holder", "--in", "{fields}", "--axis", "1", "--expect", "0.5",
        ],
    }

    @pytest.mark.parametrize(
        "argv", NOTHING_TO_CHECK.values(), ids=NOTHING_TO_CHECK.keys()
    )
    def test_nothing_to_check_exits_2(self, field_files, tmp_path, argv):
        argv = [a.format(fields=",".join(field_files)) for a in argv]
        code, _ = run_cli(argv + ["--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_localtime(self, field_files, tmp_path):
        out = str(tmp_path / "lt.csv")
        code, text = run_cli(
            ["localtime", "--in", ",".join(field_files), "--level", "0",
             "--corner", "0.1,0.1", "--radii", "0.8,0.4,0.2,0.1",
             "--out", out]
        )
        assert code == 0
        summary = json.loads(text)
        assert summary["tau"] == 1
        assert summary["predicted_sum"] == pytest.approx(1.5)
        assert isinstance(summary["passes"], bool)

    def test_localtime_level_defaults_to_zero(self, field_files, tmp_path):
        common = ["localtime", "--in", ",".join(field_files),
                  "--corner", "0.1,0.1", "--radii", "0.8,0.4,0.2"]
        code, _ = run_cli(common + ["--out", str(tmp_path / "default.csv")])
        assert code == 0
        code, _ = run_cli(common + ["--level", "0", "--out", str(tmp_path / "zero.csv")])
        assert code == 0

        def rows(name):  # data columns only: the manifest column names the argv
            lines = (tmp_path / name).read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert rows("default.csv") == rows("zero.csv")
        assert len(rows("default.csv")) == 4

    def test_levelset_dim(self, field_files, tmp_path):
        out = str(tmp_path / "d.csv")
        code, text = run_cli(
            ["levelset-dim", "--in", ",".join(field_files), "--level", "0",
             "--scales", "2,3,4", "--out", out]
        )
        assert code == 0
        summary = json.loads(text)
        assert 0.0 < summary["mean_dimension"] <= 2.0
        assert summary["passes"] is True

    def test_covering_exponent(self, tmp_path):
        # the CSV holds one integer count per scale, in ascending scale order,
        # whatever order the scales were given in
        for scales in ("1,2,3", "3,1,2"):
            out = str(tmp_path / "c.csv")
            code, text = run_cli(
                ["levelset-dim", "--what", "covering", "--hurst", "0.5,0.5",
                 "--points", "256", "--scales", scales, "--out", out]
            )
            assert code == 0
            summary = json.loads(text)
            assert summary["slope"] == pytest.approx(4.0, abs=1e-9)
            assert summary["passes"] is True
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [(r["scale"], r["box_count"]) for r in rows] == [
                ("1", "16"), ("2", "256"), ("3", "4096")]

    def test_ecf_check_variance_route(self, tmp_path):
        out = str(tmp_path / "e.csv")
        code, text = run_cli(
            ["ecf-check", "--seed", "5", "--alpha", "2", "--hurst", "0.5,0.7",
             "--t", "1,1", "--samples", "300", "--count", "300", "--out", out]
        )
        assert code == 0
        summary = json.loads(text)
        assert summary["variance"] > 0.0
        assert summary["target_variance"] > 0.0
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert len(lines) == 301

    def test_ecf_check_samples_the_default_density(self, tmp_path):
        out = str(tmp_path / "e.csv")
        code, _ = run_cli(
            ["ecf-check", "--seed", "5", "--alpha", "2", "--hurst", "0.5,0.7",
             "--t", "1,1", "--samples", "3", "--count", "300", "--out", out]
        )
        assert code == 0
        first = (tmp_path / "e.csv").read_text().splitlines()[1].split(",")
        atoms = lepage.sample_atoms(derived_seed(5, "replication", 0), 300, 2)
        expect = lepage.direct_field(atoms, np.array([1.0, 1.0]), [0.5, 0.7], 2.0)
        assert first[0] == "0"
        assert float(first[1]) == expect

    def test_scaling_check_identity(self, tmp_path):
        out = str(tmp_path / "s.csv")
        code, text = run_cli(
            ["scaling-check", "--seed", "9", "--hurst", "0.5,0.5",
             "--alpha", "2", "--d", "1", "--region", "0.1,0.35x0.1,0.35",
             "--n-scale", "1", "--reps", "400", "--n", "2", "--M", "1.5",
             "--shape", "16x16", "--out", out]
        )
        assert code == 0
        summary = json.loads(text)
        assert summary["exponent"] == pytest.approx(-2.0)
        assert 0.0 <= summary["p_value"] <= 1.0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert len(lines) == 401


class TestCliFormula:
    def test_reference_example(self):
        code, out = run_cli(["formula", "--hurst", "0.4,0.6", "--d", "1",
                             "--dimF", "0"])
        assert code == 0
        assert "1.6" in out
        summary = json.loads(out)
        assert summary["value"] == 1.6
        assert summary["k"] == 1 and summary["sandwich_holds"]

    def test_stdout_is_deterministic(self):
        _, out1 = run_cli(["formula", "--hurst", "0.4,0.6", "--d", "1",
                           "--dimF", "0"])
        _, out2 = run_cli(["formula", "--hurst", "0.4,0.6", "--d", "1",
                           "--dimF", "0"])
        assert out1 == out2

    def test_empty_regime_is_signaled(self):
        code, out = run_cli(["formula", "--hurst", "0.9,0.9", "--d", "3",
                             "--dimF", "0"])
        assert code == 0
        summary = json.loads(out)
        assert summary["value"] is None
        assert summary["regime"] == "empty-or-zero-dimensional"


class TestCliContract:
    def test_unknown_subcommand(self):
        code, _ = run_cli(["nonsense"])
        assert code == 2

    def test_unknown_flag(self):
        code, _ = run_cli(["synth", "--frobnicate", "1"])
        assert code == 2

    def test_missing_required_option(self):
        code, _ = run_cli(["formula", "--hurst", "0.4,0.6", "--d", "1"])
        assert code == 2

    def test_unreadable_input(self, tmp_path):
        bad = tmp_path / "bad.zh"
        bad.write_bytes(b"XXFIELD1" + b"\x00" * 32)
        code, _ = run_cli(["holder", "--in", str(bad), "--axis", "0",
                           "--out", str(tmp_path / "h.csv")])
        assert code == 2

    def test_missing_input_file(self, tmp_path):
        code, _ = run_cli(["holder", "--in", str(tmp_path / "nope.zh"),
                           "--axis", "0", "--out", str(tmp_path / "h.csv")])
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hurst": "0.4,0.6", "d": 1, "dimF": 0.0}))
        code, out = run_cli(["formula", "--config", str(cfg)])
        assert code == 0 and json.loads(out)["value"] == 1.6
        code, out = run_cli(["formula", "--config", str(cfg), "--dimF", "1"])
        assert code == 0 and json.loads(out)["value"] == 2.0

    def read_with(self, tmp_path, subcommand, edit):
        path = rewrite_header(tmp_path, "f.zh", edit, reader_field())
        code, _ = run_cli([subcommand, "--in", path, "--out", str(tmp_path / "o.csv"),
                           *READERS[subcommand]])
        return code

    @pytest.mark.parametrize("subcommand", READERS)
    def test_sound_header_exits_0(self, tmp_path, subcommand):
        assert self.read_with(tmp_path, subcommand, lambda h: h) == 0

    @pytest.mark.parametrize("edit", FORMAT_ERRORS)
    @pytest.mark.parametrize("subcommand", READERS)
    def test_malformed_header_exits_2(self, tmp_path, subcommand, edit):
        assert self.read_with(tmp_path, subcommand, edit) == 2

    @pytest.mark.parametrize("edit", [no_hurst, no_alpha, scalar_hurst])
    @pytest.mark.parametrize("subcommand", READERS)
    def test_meta_without_the_law(self, tmp_path, subcommand, edit):
        # only localtime reads H and alpha; the others rightly ignore them
        assert self.read_with(tmp_path, subcommand, edit) == (2 if subcommand == "localtime" else 0)

    # argv ({field}: a 2-D field file, {tmp}: a scratch directory) and the
    # config passed with it; each holds one malformed value
    MALFORMED = {
        "config-scales-not-a-list": (
            ["levelset-dim", "--in", "{field}", "--out", "{tmp}/d.csv"],
            {"scales": 3},
        ),
        "config-grid-not-a-shape": (
            ["synth", "--seed", "7", "--alpha", "1.5", "--hurst", "0.5,0.7",
             "--n", "2", "--M", "1.0", "--bounds", "0.1,0.9x0.1,0.9",
             "--count", "500", "--out", "{tmp}/s.zh"],
            {"grid": 32},
        ),
        "holder-axis-out-of-range": (
            ["holder", "--in", "{field}", "--axis", "5", "--out", "{tmp}/h.csv"],
            None,
        ),
        "coeffs-hurst-out-of-range": (
            ["coeffs", "--seed", "9", "--alpha", "1.5", "--hurst", "1.5,7",
             "--n", "2", "--M", "1.0", "--count", "500", "--out", "{tmp}/c.bin"],
            None,
        ),
        "ecf-check-no-samples": (
            ["ecf-check", "--seed", "5", "--alpha", "2", "--hurst", "0.5,0.7",
             "--t", "1,1", "--samples", "0", "--count", "10",
             "--out", "{tmp}/e.csv"],
            None,
        ),
        **{
            f"synth-{name}": (
                ["synth", "--seed", "7", "--alpha", "1.5", "--hurst", "0.5,0.7",
                 "--n", "2", "--M", "1.0", "--bounds", "0.1,0.9x0.1,0.9",
                 "--grid", "8x8", "--count", "500", "--out", "{tmp}/s.zh", *edit],
                None,
            )
            for name, edit in (("count-zero", ["--count", "0"]),
                               ("count-negative", ["--count", "-5"]),
                               ("M-infinite", ["--M", "inf"]))
        },
        "formula-hurst-nan": (
            ["formula", "--hurst", "nan,0.5", "--d", "1", "--dimF", "0"],
            None,
        ),
        "covering-hurst-nan": (
            ["levelset-dim", "--what", "covering", "--hurst", "nan,0.5",
             "--out", "{tmp}/d.csv"],
            None,
        ),
        "covering-repeated-scales": (
            ["levelset-dim", "--what", "covering", "--hurst", "0.5,0.5",
             "--scales", "2,2,3", "--out", "{tmp}/d.csv"],
            None,
        ),
        "covering-scale-fitted-twice": (
            ["levelset-dim", "--what", "covering", "--hurst", "0.5,0.5",
             "--points", "64", "--scales", "2,2,3,4", "--out", "{tmp}/d.csv"],
            None,
        ),
        "level-set-scale-fitted-twice": (
            ["levelset-dim", "--in", "{field}", "--level", "0",
             "--scales", "2,2,3,4", "--out", "{tmp}/d.csv"],
            None,
        ),
    }

    @pytest.mark.parametrize("argv, config", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_value_exits_2(self, tmp_path, argv, config):
        field = tmp_path / "f.zh"
        fieldio.write_field(small_field(), str(field))
        argv = [a.format(field=field, tmp=tmp_path) for a in argv]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        code, _ = run_cli(argv)
        assert code == 2

    def test_help_lists_defaults(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["synth", "--help"]) == 0
        text = " ".join(buf.getvalue().split())
        assert "--grid GRID default: 256x256" in text
        assert "--seed SEED required" in text

    def test_help_exits_zero(self):
        code, _ = run_cli(["--help"])
        assert code == 0

    def test_module_entry_point_starts_without_warnings(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "stablesheet.cli", "formula",
             "--hurst", "0.4,0.6", "--d", "1", "--dimF", "0"],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["value"] == 1.6

    # run in a fresh interpreter: argv[1] is a .zh file, argv[2] a CSV path
    SCIPY_FREE = (
        "import contextlib, io, json, sys\n"
        "import stablesheet, stablesheet.cli as cli\n"
        "lazy = ('scipy.stats', 'scipy.interpolate', 'scipy.special')\n"
        "loaded = [[m for m in lazy if m in sys.modules]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['formula', '--hurst', '0.4,0.6', '--d', '1', '--dimF', '0']),\n"
        "             cli.main(['holder', '--in', sys.argv[1], '--axis', 'all',\n"
        "                       '--out', sys.argv[2]])]\n"
        "loaded.append([m for m in lazy if m in sys.modules])\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )

    def test_formula_and_holder_load_no_scipy_submodule(self, tmp_path):
        field = sy.synthesize((0.5, 0.5), 2.0, sy.TruncationDomain(1, 1.0),
                              (((0.05, 0.95), (0.05, 0.95)), (256, 256)), 1)
        path = str(tmp_path / "f.zh")
        fieldio.write_field(field, path)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCIPY_FREE, path, str(tmp_path / "h.csv")],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": [0, 0], "loaded": [[], []]}


class TestFuzzedFieldFile:
    """Any byte mutation of a valid .zh file exits 0 or 2, never 1."""

    # bytes that keep a JSON header parseable more often than a random byte
    JSON_BYTES = b'0123456789-+.eE[]{},:" '

    def test_mutated_bytes_exit_0_or_2(self, tmp_path):
        # holder needs 256 points per axis, so the field is 256 x 256
        src = tmp_path / "src.zh"
        fieldio.write_field(sy.synthesize(
            (0.5, 0.7), 1.5, sy.TruncationDomain(2, 1.0),
            (((0.1, 0.9), (0.1, 0.9)), (256, 256)), 42, count=500,
        ), str(src))
        blob = src.read_bytes()
        header_end = 12 + struct.unpack_from("<I", blob, 8)[0]
        fuzzed = tmp_path / "fuzzed.zh"
        argvs = [
            ["holder", "--in", str(fuzzed), "--axis", "all", "--out", str(tmp_path / "h.csv")],
            ["levelset-dim", "--in", str(fuzzed), "--scales", "1,2,3",
             "--out", str(tmp_path / "d.csv")],
        ]
        byte = st.one_of(st.integers(0, 255), st.sampled_from(self.JSON_BYTES))

        @settings(max_examples=200, derandomize=True, deadline=None, database=None)
        @given(
            # positions in the header more often than in the values
            edits=st.lists(st.tuples(st.one_of(st.integers(0, header_end - 1),
                                               st.integers(0, len(blob) - 1)), byte),
                           min_size=1, max_size=4),
            cut=st.one_of(st.none(), st.integers(0, len(blob))),
        )
        def check(edits, cut):
            data = bytearray(blob)
            for pos, value in edits:
                data[pos] = value
            fuzzed.write_bytes(bytes(data[:cut]))
            for argv in argvs:
                code, _ = run_cli(argv)
                assert code in (0, 2), (argv[0], bytes(data[:cut]))

        check()


class TestManifestContract:
    """Seeds and parameters of each subcommand's run manifest.

    They decide the manifest digest, and so the bytes of every artifact,
    which carries that digest. The argv are those of criterion 13 (plus the
    other ``--what`` kinds); the literals were read off manifests it wrote.
    """

    CASES = {
        "synth": (SYNTH_ARGS, [7], {
            "M": 1.0, "alpha": 1.5, "bounds": [[0.1, 0.9], [0.1, 0.9]],
            "count": 500, "d": 1, "grid": [8, 8], "hurst": [0.5, 0.7], "n": 2,
        }),
        "coeffs": (
            ["coeffs", "--seed", "9", "--alpha", "1.5", "--hurst", "0.5,0.7",
             "--n", "2", "--M", "1.0", "--count", "500"],
            [9],
            {"M": 1.0, "alpha": 1.5, "count": 500, "hurst": [0.5, 0.7], "n": 2},
        ),
        "tables-kappa": (
            ["tables", "--what", "kappa", "--alpha-grid", "1.5,2.0",
             "--v-grid", "0.3,0.5"],
            [],
            {"alpha_grid": [1.5, 2.0], "v_grid": [0.3, 0.5], "what": "kappa"},
        ),
        "tables-psi-hat": (
            ["tables", "--what", "psi-hat", "--points", "64"],
            [],
            {"points": 64, "what": "psi-hat", "xi_max": 8.0, "xi_min": 0.05},
        ),
        "tables-psi-v": (
            ["tables", "--what", "psi-v", "--v", "0.5", "--alpha", "1.5",
             "--points", "32"],
            [],
            {"alpha": 1.5, "points": 32, "v": 0.5, "what": "psi-v", "y_max": 8.0},
        ),
        "ecf-check": (
            ["ecf-check", "--seed", "5", "--alpha", "2.0", "--hurst", "0.5,0.5",
             "--t", "1,1", "--samples", "40", "--count", "200"],
            [5],
            {"alpha": 2.0, "count": 200, "hurst": [0.5, 0.5], "samples": 40,
             "t": [1.0, 1.0], "tol": 0.05},
        ),
        "holder": (
            ["holder", "--in", "{field}", "--axis", "all"],
            [],
            {"axis": "all", "expect": None, "tol": 0.1},
        ),
        "localtime": (
            ["localtime", "--in", "{field}", "--level", "0.0",
             "--corner", "0.1,0.1", "--radii", "0.4,0.2,0.1"],
            [],
            {"corner": [0.1, 0.1], "level": [0.0], "radii": [0.4, 0.2, 0.1]},
        ),
        "levelset-dim": (
            ["levelset-dim", "--what", "level-set", "--in", "{field}",
             "--scales", "1,2,3"],
            [],
            {"expect": None, "level": 0.0, "scales": [1, 2, 3], "tol": 0.15,
             "what": "level-set"},
        ),
        "levelset-dim-covering": (
            ["levelset-dim", "--what", "covering", "--hurst", "0.5,0.5",
             "--points", "64"],
            [],
            {"hurst": [0.5, 0.5], "points": 64, "scales": [2, 3, 4, 5, 6],
             "what": "covering"},
        ),
        "scaling-check": (
            ["scaling-check", "--seed", "31", "--hurst", "0.5,0.5",
             "--alpha", "2.0", "--d", "1", "--region", "0.05,0.175x0.05,0.175",
             "--n-scale", "2", "--reps", "400", "--n", "1", "--M", "1.5",
             "--shape", "8x8"],
            [31],
            {"M": 1.5, "alpha": 2.0, "d": 1, "hurst": [0.5, 0.5], "level": 0.0,
             "n": 1, "n_scale": 2, "region": [[0.05, 0.175], [0.05, 0.175]],
             "reps": 400, "shape": [8, 8]},
        ),
        "report": (["report", "--checks", "1"], [], {"checks": [1]}),
    }

    @pytest.fixture(scope="class")
    def field_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("field") / "f.zh")
        code, _ = run_cli(
            ["synth", "--seed", "7", "--alpha", "2.0", "--hurst", "0.5,0.7",
             "--n", "2", "--M", "1.0", "--grid", "256x256",
             "--bounds", "0.05,0.95x0.05,0.95", "--out", path]
        )
        assert code == 0
        return path

    @pytest.mark.parametrize("argv, seeds, parameters", CASES.values(),
                             ids=CASES.keys())
    def test_seeds_and_parameters(self, field_path, tmp_path, argv, seeds,
                                  parameters):
        out = str(tmp_path / "out")
        code, text = run_cli([a.format(field=field_path) for a in argv]
                             + ["--out", out])
        assert code == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert manifest["seeds"] == seeds
        assert manifest["parameters"] == parameters
        assert manifest["manifest_digest"] == json.loads(text)["manifest"]
