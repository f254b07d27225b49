import hashlib
import json

import numpy as np
import pytest

from hgs.cli import main


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


def test_sinc_random_csv_bytes_pinned(capsys):
    # the CSV bytes of a seeded run are part of the output contract
    code, out, _ = run(capsys, "sinc", "--random", "12", "--seed", "7",
                       "--lambda-nodes", "256", "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "308d00e3a32963efb94861e9e2eca9091fc4715ab617f10e11b8038d282a201c")


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
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:")
