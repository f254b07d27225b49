import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hgs
from hgs import cli
from hgs.cli import main
from hgs.sinc import S0_closed, S1_closed

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:     # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

VERIFY_CANONICAL_DIGEST = (
    "407c642c92580c06153ae56042c6c96791c3f5e2b883169ca3adcfbcab02d74b")
# the instruction set each forced OpenBLAS kernel needs
CORE_TYPE_FEATURE = {"Prescott": "SSE3", "Sandybridge": "AVX",
                     "Haswell": "AVX2", "SkylakeX": "AVX512_SKX"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_true(capsys):
    code, out, _ = run(capsys, "density", "-1,1", "1", "1")
    assert code == 0
    assert "interpolation  true" in out
    assert "mu(E)          1" in out


def test_density_false_cases(capsys):
    code, out, _ = run(capsys, "density", "-1,0.5", "1", "1")
    assert code == 1
    assert "0.625" in out
    code, out, _ = run(capsys, "density", "-0.5,0.5", "1", "1")
    assert code == 1 and "0.25" in out
    code, out, _ = run(capsys, "density", "-1,1", "2", "2")
    assert code == 1
    assert "ab <= 1        false" in out


def test_density_window_check(capsys):
    code, out, _ = run(capsys, "density", "-1,1", "0.5", "1")
    assert code == 1
    assert "target 1/ab    2" in out
    assert "E in window    true" in out
    assert "interpolation  false" in out


def test_density_usage_error(capsys):
    code, _, err = run(capsys, "density", "-1,1")
    assert code == 2 and "usage" in err


def test_verify_canonical_default(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-canonical", "--no-timestamp",
                       "--lambda-nodes", "32", "--out", str(out_path))
    assert code == 0
    assert "overall" in out and "FAIL" not in out
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    assert "timestamp" not in report
    names = [c["name"] for c in report["checks"]]
    assert {"gabor-field", "orthogonality", "theta-criterion",
            "gram-orthonormality", "density"} <= set(names)


def test_verify_canonical_alpha_beta_failure(capsys):
    code, out, _ = run(capsys, "verify-canonical", "--alpha", "2",
                       "--beta", "2", "--no-timestamp",
                       "--lambda-nodes", "16")
    assert code == 1
    assert "density" in out and "FAIL" in out


def test_verify_canonical_empty_grid(capsys):
    code, _, err = run(capsys, "verify-canonical", "--lambda-min", "2",
                       "--lambda-nodes", "16")
    assert code == 2
    assert "excluded band" in err


def test_verify_canonical_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify-canonical", "--no-timestamp",
                         "--lambda-nodes", "16", "--seed", "5",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_canonical_one_kernel_call_for_orthogonality(capsys,
                                                             monkeypatch):
    # the 8 orthogonality points share one unfolding-kernel call over
    # their 16 slices
    from hgs import fieldcheck
    calls, kernel = [], fieldcheck._unfolded_sum

    def spy(f, g, c, step, kmax):
        calls.append(np.size(c))
        return kernel(f, g, c, step, kmax)

    monkeypatch.setattr(fieldcheck, "_unfolded_sum", spy)
    code, _, _ = run(capsys, "verify-canonical", "--no-timestamp",
                     "--lambda-nodes", "16")
    assert code == 0
    assert calls == [16]


def test_sinc_point_row(capsys, tmp_path):
    csv = tmp_path / "pts.csv"
    code, out, _ = run(capsys, "sinc", "--point", "0.5,1,1",
                       "--lambda-nodes", "256", "--csv", str(csv),
                       "--no-timestamp")
    assert code == 0
    text = csv.read_text()
    want = 1.0 / (3.0 * np.pi ** 2)
    row = text.splitlines()[1].split(",")
    header = text.splitlines()[0].split(",")
    s0 = float(row[header.index("s0_re")])
    s0_printed = float(row[header.index("s0_printed_re")])
    assert s0 == pytest.approx(want, abs=1e-6)
    assert s0_printed == pytest.approx(-want, abs=1e-9)


def test_sinc_report_rows_informational(capsys, tmp_path):
    # the closed forms are compared with the oracle to pick a reading, so
    # the rows carry readings, not pass marks
    out_path = tmp_path / "sinc.json"
    code, _, _ = run(capsys, "sinc", "--point", "0.5,1,1",
                     "--lambda-nodes", "256", "--no-timestamp",
                     "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    rows = {c["name"]: c for c in report["checks"]}
    for name in ("s0-closed-vs-oracle", "s1-closed-vs-oracle"):
        assert rows[name]["informational"] is True
        assert rows[name]["passed"] is None
    assert report["passed"] is True


def test_verify_canonical_lattice_note_informational(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-canonical", "--alpha", "0.5",
                       "--beta", "2", "--no-timestamp", "--lambda-nodes",
                       "16", "--out", str(out_path))
    report = json.loads(out_path.read_text())
    note = report["checks"][0]
    assert note["name"] == "lattice-integer-note"
    assert note["informational"] is True and note["passed"] is None
    assert out.splitlines()[0].split()[:2] == ["lattice-integer-note", "info"]
    rows = [c for c in report["checks"][1:] if c["name"] != "theta-criterion"]
    verdicts = [c["passed"] for c in rows]
    assert all("informational" not in c for c in rows)
    assert report["passed"] == all(verdicts)
    assert code == (0 if all(verdicts) else 1)


@pytest.mark.parametrize("alpha,beta", [("2", "0.5"), ("1", "0.5"),
                                        ("0.5", "1"), ("1", "2")])
def test_verify_canonical_theta_informational_off_unit_lattice(
        capsys, tmp_path, alpha, beta):
    # the theta criterion characterizes orthonormality on Z^3 only; off it
    # its reading contradicts the Gram check (deviations of 0.5 to 0.637
    # at the first three lattices, a Gram pass at (1, 2))
    out_path = tmp_path / "report.json"
    _, out, _ = run(capsys, "verify-canonical", "--alpha", alpha,
                       "--beta", beta, "--no-timestamp", "--lambda-nodes",
                       "16", "--out", str(out_path))
    rows = {c["name"]: c for c in json.loads(out_path.read_text())["checks"]}
    assert rows["theta-criterion"] == {
        "name": "theta-criterion", "passed": None,
        "detail": "not applicable off the unit lattice",
        "informational": True}
    assert "theta-criterion              info  not applicable off the unit " \
        "lattice" in out.splitlines()


def test_sinc_non_finite_points_named(capsys, tmp_path):
    # a non-finite coordinate would divide by zero in the oracle or give
    # NaN rows; the error names the point or its line
    for point in ("nan,0,0", "0.5,inf,0"):
        code, _, err = run(capsys, "sinc", "--point", point)
        assert code == 2 and err.startswith("error:") and point in err
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5,1,1\nnan,0,0\n")
    code, _, err = run(capsys, "sinc", "--points-file", str(pts))
    assert code == 2 and "line 2" in err and "nan,0,0" in err


def test_config_non_ascii_exit_2(capsys, tmp_path):
    cfg = tmp_path / "hgs.cfg"
    cfg.write_bytes(b"lambda_nodes 16\n\xff\n")
    code, _, err = run(capsys, "verify-canonical", "--config", str(cfg))
    assert code == 2 and err.startswith("error:") and "line 2" in err


def test_sinc_outside_strip(capsys):
    code, out, _ = run(capsys, "sinc", "--point", "1.5,0.2,0.3",
                       "--lambda-nodes", "256", "--no-timestamp")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert abs(float(row[3])) <= 1e-12 and abs(float(row[4])) <= 1e-12


def test_sinc_random_deterministic(capsys):
    code, out1, _ = run(capsys, "sinc", "--random", "12", "--seed", "7",
                        "--lambda-nodes", "256", "--no-timestamp")
    assert code == 0
    code, out2, _ = run(capsys, "sinc", "--random", "12", "--seed", "7",
                        "--lambda-nodes", "256", "--no-timestamp")
    assert out1 == out2
    assert len(out1.splitlines()) == 13


def test_sinc_bad_points_file(capsys, tmp_path):
    bad = tmp_path / "pts.txt"
    bad.write_text("not,a,number\n")
    code, _, err = run(capsys, "sinc", "--points-file", str(bad),
                       "--lambda-nodes", "256")
    assert code == 2 and "error" in err


def test_sinc_points_file_non_ascii_line(capsys, tmp_path):
    # the whole file is decoded first, so the non-ASCII line wins over the
    # bad point before it; a missing file keeps the same prefix
    bad = tmp_path / "pts.txt"
    bad.write_bytes(b"0.5,1\n0.5,1,1\n\xff\n")
    code, _, err = run(capsys, "sinc", "--points-file", str(bad))
    assert code == 2
    assert err == "error: unreadable points file: line 3: not ASCII text\n"
    code, _, err = run(capsys, "sinc", "--points-file",
                       str(tmp_path / "missing"))
    assert code == 2 and err.startswith("error: unreadable points file: ")


def test_sinc_far_out_point_finite(capsys):
    # at |c y| < 1e-6 the closed forms take psi's derivatives, whose closed
    # numerators over u^3 overflowed past |z| ~ 3e101 with a traceback; the
    # command now refuses that point before its oracle aliases (see below),
    # so the forms are called directly
    for val in (S0_closed(0.3, 0.0, 1e102), S1_closed(0.3, 0.0, 1e102)):
        assert math.isfinite(val.real) and math.isfinite(val.imag)
        assert abs(val) < 1e-99
    code, out, err = run(capsys, "sinc", "--point", "0.3,0,1e102",
                         "--lambda-nodes", "256", "--no-timestamp")
    assert code == 2 and out == ""
    assert err.startswith("error: point 0.3,0.0,1e+102 lies past")


@pytest.mark.parametrize("nodes, reach", [(256, 16.0), (4096, 256.0)])
def test_sinc_rejects_points_past_oracle_reach(capsys, tmp_path, nodes,
                                               reach):
    # the Gauss oracle resolves |y| + |z| up to one turn of its phase per
    # panel, 1 / width (16 panels per unit at 256 nodes): on that edge
    # both derived readings stay within criterion 7's 1e-6, past it the
    # point exits 2 with the reach named, and more nodes move the edge
    edge = [(x, s * t * reach, (1.0 - t) * reach)
            for x in (-0.6, 0.0, 0.3, 0.7) for t in (0.0, 0.4, 1.0)
            for s in (1.0, -1.0)]
    pts = tmp_path / "edge.txt"
    pts.write_text("".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in edge))
    csv = tmp_path / "edge.csv"
    code, _, _ = run(capsys, "sinc", "--points-file", str(pts),
                     "--lambda-nodes", str(nodes), "--csv", str(csv),
                     "--no-timestamp")
    assert code == 0
    rows = [[float(v) for v in line.split(",")]
            for line in csv.read_text().splitlines()[1:]]
    assert len(rows) == len(edge)
    for (x, y, z), row in zip(edge, rows):
        s0, s1 = complex(*row[5:7]), complex(*row[7:9])
        assert (abs(S0_closed(x, y, z, reading="derived") - s0)
                <= 1e-6 * (abs(s0) + 1e-3))
        assert abs(S1_closed(x, y, z) - s1) <= 1e-6 * (abs(s1) + 1e-3)
    for point in (f"0.3,0,{reach * 1.01!r}", f"0.3,{-reach / 2},"
                  f"{reach * 0.51!r}"):
        code, out, err = run(capsys, "sinc", "--point", point,
                             "--lambda-nodes", str(nodes))
        assert code == 2 and out == ""
        assert f"|y| + |z| <= {reach:g} on {nodes} nodes" in err
        assert "--lambda-nodes raises it" in err


def test_sinc_random_csv_bytes_pinned(capsys):
    # the CSV bytes of a seeded run are part of the output contract
    code, out, _ = run(capsys, "sinc", "--random", "12", "--seed", "7",
                       "--lambda-nodes", "256", "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "308d00e3a32963efb94861e9e2eca9091fc4715ab617f10e11b8038d282a201c")


@pytest.mark.parametrize("command, digest", [
    ("sample",
     "e8bf8b9e9dce3a242e16f50f1c1dc142a6f171bed0eb3fca131470d96b75e1da"),
    ("verify-canonical", VERIFY_CANONICAL_DIGEST),
], ids=["sample", "verify-canonical"])
def test_report_bytes_pinned(capsys, tmp_path, command, digest):
    # the JSON report of a seeded run is part of the output contract; its
    # bytes do not depend on the --out path
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, command, "--seed", "5", "--no-timestamp",
                     "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("core", list(CORE_TYPE_FEATURE))
def test_verify_canonical_bytes_independent_of_blas_kernel(tmp_path, core):
    # the Gram row's two worst entries tie up to rounding, and the OpenBLAS
    # kernel decides the rounding; the report must not depend on it.  A
    # kernel whose instructions the host lacks would crash the process.
    # The sample report still depends on the kernel through its BLAS-backed
    # reductions, so it is not checked here.
    if not __cpu_features__.get(CORE_TYPE_FEATURE[core], False):
        pytest.skip(f"host lacks {CORE_TYPE_FEATURE[core]}")
    src = str(Path(hgs.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hgs.cli import main; sys.exit(main(sys.argv[1:]))",
         "verify-canonical", "--seed", "5", "--no-timestamp",
         "--out", str(out_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == VERIFY_CANONICAL_DIGEST


def test_sample_reconstructs_with_the_sampling_constant(capsys, tmp_path):
    # r = (1/c) sum phi(gamma) T_gamma e with c = 1/(alpha beta), the value
    # the isometry ratio converges to; with c = alpha beta the errors read
    # 2.9 at (1, 0.5) and the doubling row failed
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "sample", "--alpha", "1", "--beta", "0.5",
                     "--no-timestamp", "--out", str(out_path))
    report = json.loads(out_path.read_text())
    assert code == 1
    assert [c["passed"] for c in report["checks"]] == [True, False, True]
    assert [row["recon"] for row in report["table"]] == pytest.approx(
        [0.14918936336511482, 0.13897018865657862, 0.23630234533002625,
         0.09077868153391497], rel=1e-9)


def test_sample_stdout_bytes_pinned(capsys):
    # the console table rounds every reading, so it holds through changes
    # that move the report's floats at rounding level
    code, out, _ = run(capsys, "sample", "--seed", "5", "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "9521a8a1c53400461df660a589bc2f2d1be01740d6f42293f54d91e25564c04c")


@pytest.mark.parametrize("text", ["0.5,1\n", "0.5,1,1\n\n0.25\n"])
def test_sinc_short_points_file_line(capsys, tmp_path, text):
    bad = tmp_path / "pts.txt"
    bad.write_text(text)
    code, _, err = run(capsys, "sinc", "--points-file", str(bad),
                       "--lambda-nodes", "256")
    assert code == 2 and "error" in err and "line" in err


def test_sample_default(capsys):
    code, out, _ = run(capsys, "sample", "--no-timestamp",
                       "--lambda-nodes", "256", "--bounds", "2,6,3")
    assert code == 0
    assert "isometry-ratio" in out and "FAIL" not in out


@pytest.mark.parametrize("bounds", ["1,1,1", "2,1,2", "1,0,1"])
def test_sample_small_boxes_pass(capsys, bounds):
    # the doubled box holds the straddling atom and the in-box atoms lie
    # in the box, whatever the bounds
    code, out, _ = run(capsys, "sample", "--no-timestamp", "--bounds",
                       bounds)
    assert code == 0
    assert "FAIL" not in out


def test_sample_empty_box_exit_2(capsys):
    code, _, err = run(capsys, "sample", "--no-timestamp", "--bounds",
                       "0,0,0")
    assert code == 2
    assert err.startswith("error:") and "box too small" in err


def test_sample_small_spectrum_marks_interpolation(capsys):
    code, out, _ = run(capsys, "sample", "--spectrum=-0.5,0.5",
                       "--no-timestamp", "--lambda-nodes", "256",
                       "--bounds", "2,6,3")
    assert "interpolation=False" in out


def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "hgs.cfg"
    cfg.write_text("lambda_nodes 16\nseed 9\n")
    out_path = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify-canonical", "--config", str(cfg),
                     "--no-timestamp", "--seed", "11",
                     "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["config"]["lambda_nodes"] == 16   # from config file
    assert report["config"]["seed"] == 11           # flag wins


def test_env_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HGS_SEED", "123")
    out_path = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify-canonical", "--no-timestamp",
                     "--lambda-nodes", "16", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["config"]["seed"] == 123


@pytest.mark.parametrize("env,config,argv", [
    ("abc", None, ["verify-canonical", "--lambda-nodes", "16"]),
    (None, "alpha abc\n", ["verify-canonical", "--lambda-nodes", "16"]),
    (None, "lambda_nodes 1.5\n", ["verify-canonical"]),
    (None, None, ["sample", "--lambda-nodes", "256", "--bounds", "1,x,1"]),
    (None, None, ["sinc", "--point", "0.5,one,1"]),
    (None, None, ["sample", "--lambda-nodes", "256", "--bounds", "-1,2,2"]),
    (None, None, ["verify-canonical", "--lambda-nodes", "16", "--tol", "-1"]),
    (None, "tol -1e-3\n", ["verify-canonical", "--lambda-nodes", "16"]),
    (None, None, ["sinc", "--random", "-3"]),
    (None, None, ["sinc", "--random", "100000000"]),
    (None, None, ["sinc", "--random", "1", "--lambda-min", "0.5"]),
    (None, None, ["verify-canonical", "--lambda-nodes", "16", "--seed",
                  "-1"]),
    (None, None, ["sinc", "--point", "0.5,0.2,0.1", "--alpha", "2"]),
    (None, None, ["sinc", "--point", "0.5,0.2,0.1", "--beta", "3"]),
    (None, None, ["sinc", "--point", "0.5,0.2,0.1", "--bounds", "1,1,1"]),
    (None, None, ["sinc", "--point", "0.5,0.2,0.1", "--tol", "5"]),
    (None, None, ["sample", "--lambda-nodes", "256", "--bounds",
                  "1000,1000,8"]),
    (None, None, ["verify-canonical", "--spectrum", "a,b"]),
    (None, None, ["density", "-1,1", "inf", "1"]),
    (None, None, ["sample", "--lambda-nodes", "256", "--lambda-min", "0.3"]),
    (None, None, ["sample", "--lambda-nodes", "256", "--tol", "7"]),
    (None, None, ["verify-canonical", "--lambda-nodes", "16", "--bounds",
                  "9,9,9"]),
    (None, None, ["verify-canonical", "--lambda-nodes", "1000000000000"]),
    # lattice densities whose shift counts or constants leave float range
    (None, None, ["verify-canonical", "--alpha", "1e-300"]),
    (None, None, ["verify-canonical", "--beta", "1e300"]),
    (None, None, ["verify-canonical", "--alpha", "1e160", "--beta",
                  "1e160"]),
    (None, None, ["sample", "--beta", "1e-200"]),
    (None, None, ["sample", "--alpha", "1e160", "--beta", "1e160"]),
    (None, None, ["density", "-1,1", "1e160", "1e160"]),
])
def test_bad_values_exit_2(capsys, tmp_path, monkeypatch, env, config,
                           argv):
    # malformed values at the boundary are usage errors, never a traceback
    # or a failed verification
    if env is not None:
        monkeypatch.setenv("HGS_SEED", env)
    else:
        monkeypatch.delenv("HGS_SEED", raising=False)
    if config is not None:
        cfg = tmp_path / "hgs.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    # an address-space cap of at most 1 TiB makes an impossible allocation
    # fail at once whatever the host's overcommit policy
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 40 if soft == resource.RLIM_INFINITY else min(soft, 1 << 40)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        code, _, err = run(capsys, *argv)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert code == 2 and err.startswith("error:")


def test_oversized_settings_exit_2_before_building(capsys, tmp_path,
                                                    monkeypatch):
    # a node count above the cap, from a flag or a config file, a box
    # whose study arrays exceed the byte budget, and a node count under the
    # cap whose intervals together exceed it are rejected before any grid
    # is laid out, so nothing oversized is allocated
    def boom(*args):
        raise AssertionError("grid built for an oversized setting")
    monkeypatch.setattr(cli, "lambda_grid", boom)
    monkeypatch.setattr(cli, "gauss_lambda_grid", boom)
    over = str(cli._MAX_LAMBDA_NODES + 1)
    cfg = tmp_path / "hgs.cfg"
    cfg.write_text(f"lambda_nodes {over}\n")
    # 512 nodes, doubled box (100, 128, 128): e's Gram tables alone are
    # 201 * 513 * 513 entries of 16 bytes at the one live offset, over the
    # bound; at alpha 1/8 the 1-wide slices overlap at 15 offsets, and the
    # doubled box (32, 80, 32) gives 15 * 65 * 321 * 129 entries
    assert 16 * 201 * 513 * 513 > cli._MAX_STUDY_BYTES
    assert 16 * 15 * 65 * 321 * 129 > cli._MAX_STUDY_BYTES
    # 16 intervals of 65537 nodes each, over the cap in total
    spectrum = ";".join(f"{k / 8 - 1:g},{(k + 0.5) / 8 - 1:g}"
                        for k in range(16))
    assert 16 * 65537 > cli._MAX_LAMBDA_NODES
    for argv, why in ((["verify-canonical", "--lambda-nodes", over],
                       "lambda_nodes"),
                      (["sinc", "--lambda-nodes", over], "lambda_nodes"),
                      (["sample", "--config", str(cfg)], "lambda_nodes"),
                      (["sample", "--bounds", "50,64,64"], "bad bounds"),
                      (["sample", "--alpha", "0.125", "--beta", "8",
                        "--bounds", "16,40,16"], "bad bounds"),
                      (["verify-canonical", "--spectrum", spectrum,
                        "--lambda-nodes", "65537"], "bad lambda_nodes"),
                      (["sinc", "--spectrum", spectrum, "--lambda-nodes",
                        "65537"], "bad lambda_nodes")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and why in err


def test_ignored_keys_accepted_from_config(capsys, tmp_path):
    # a config file shared by all commands may hold keys one command ignores
    cfg = tmp_path / "hgs.cfg"
    cfg.write_text("lambda_nodes 16\nbounds 9,9,9\n")
    code, _, _ = run(capsys, "verify-canonical", "--no-timestamp",
                     "--config", str(cfg))
    assert code == 0
