"""Fuzzed command lines: argv built from each command's flags and a pool
of small valid values, junk and awkward paths must give exit code 0, 1 or
2 (or argparse's usage exit 2), never a traceback."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgs.cli import main

# small valid values only: no large node counts or bounds; the extreme
# lattice densities must end in exit 1 or 2 without building anything large
_VALID = {
    "--alpha": ["1", "0.5", "2", "1e-300", "1e300"],
    "--beta": ["1", "0.5", "2", "1e-300", "1e300"],
    "--spectrum": ["-1,1", "-0.5,0.5", "0,1"],
    "--lambda-nodes": ["4", "8"],
    "--lambda-min": ["0.05", "0.2"],
    "--bounds": ["1,2,1", "0,1,0"],
    "--seed": ["0", "7"],
    "--tol": ["1e-10", "0"],
    "--point": ["0.5,1,1", "0,0,0", "0.3,0,1e102"],
    "--random": ["0", "2"],
}
_JUNK = ["nan", "inf", "1e999", "-1", "", "éß", "1,2", "1,2,3,4",
         "nan,0,0"]
_COMMON = ["--alpha", "--beta", "--spectrum", "--lambda-nodes",
           "--lambda-min", "--bounds", "--seed", "--tol", "--out",
           "--config"]
_FLAGS = {"verify-canonical": _COMMON, "sample": _COMMON,
          "sinc": _COMMON + ["--point", "--points-file", "--random", "--csv"]}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "non_ascii.txt").write_bytes(b"seed 1\n\xff\xfe\n")
    (d / "config.txt").write_text("lambda_nodes 4\nseed 3\n")
    (d / "points.txt").write_text("0.5,1,1\n0.25,0.5,0\n")
    return {"dir": str(d), "missing": str(d / "missing" / "file"),
            "non_ascii": str(d / "non_ascii.txt"),
            "config": str(d / "config.txt"),
            "points": str(d / "points.txt"), "out": str(d / "out.txt")}


def _value(flag, paths):
    valid = {"--out": [paths["out"]], "--csv": [paths["out"]],
             "--config": [paths["config"]],
             "--points-file": [paths["points"]]}.get(flag, _VALID.get(flag))
    bad = _JUNK + [paths["dir"], paths["missing"], paths["non_ascii"]]
    # most drawn values are valid, so whole command lines often run
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(valid), st.sampled_from(bad))


@st.composite
def _argv(draw, paths):
    command = draw(st.sampled_from(sorted(_FLAGS) + ["density"]))
    if command == "density":
        args = _JUNK + _VALID["--spectrum"] + _VALID["--alpha"]
        return [command] + draw(st.lists(st.sampled_from(args),
                                         max_size=4))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(_FLAGS[command]),
                              max_size=4)):
        argv += [flag, draw(_value(flag, paths))]
    if draw(st.booleans()):
        argv.append("--no-timestamp")
    return argv


_SEEDS = st.one_of(st.none(), st.sampled_from(_JUNK),
                   st.integers(-3, 2 ** 70).map(str))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_never_raises_property(paths, data):
    argv = data.draw(_argv(paths))
    seed = data.draw(_SEEDS)
    saved, cwd = os.environ.pop("HGS_SEED", None), os.getcwd()
    try:
        if seed is not None:
            os.environ["HGS_SEED"] = seed
        # a junk value given to --out or --csv is a relative file name
        os.chdir(paths["dir"])
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects the usage
            assert exc.code == 2, argv
        else:
            assert code in (0, 1, 2), argv
    finally:
        os.chdir(cwd)
        os.environ.pop("HGS_SEED", None)
        if saved is not None:
            os.environ["HGS_SEED"] = saved
