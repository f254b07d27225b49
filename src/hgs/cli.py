"""Command-line driver: verification suites, kernel tables, sampling
experiments, and density verdicts.

Configuration precedence: command-line flags > config file > HGS_SEED
environment variable (seed only) > built-in defaults.  Exit codes:
0 all checks passed, 1 a verification failed, 2 usage or configuration
error.  Reports are emitted as JSON (machine) and an aligned text summary
(human); point tables as CSV.  Identical command lines and seeds produce
byte-identical reports up to the timestamp field, which --no-timestamp
suppresses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .canonical import canonical_field
from .errors import FieldFormatError, HgsError
from .fieldcheck import (SPEC_UNIT, gabor_field_verdict,
                         jittered_unit_grid, orthogonality_residuals,
                         theta_delta_report)
from .grids import (_TILE, SpectralSet, _ascii_lines, _gauss_panel_width,
                    _self_table, gauss_lambda_grid, lambda_grid)
from .group import QuasiLatticeSpec
from .sampling import (_MAX_BOX_SAMPLES, _fft_size, interpolation_verdict,
                       onb_gram_check, reconstruction_study)
from .sinc import seeded_strip_points, sinc_compare
from .testfields import atom_suite, two_slice_field

DEFAULTS = {
    "alpha": 1.0,
    "beta": 1.0,
    "spectrum": "-1,1",
    "lambda_nodes": 64,
    "lambda_min": 0.05,
    "bounds": "3,8,4",
    "seed": 0x5EED,
    "tol": 1e-10,
}

# largest --lambda-nodes, per spectral interval and, in verify-canonical
# and sinc, times the interval count: at about 1 KB a node in
# verify-canonical, a grid stays near 1 GB
_MAX_LAMBDA_NODES = 1 << 20
# largest hgs sample study, in bytes: the generator's Gram tables over the
# doubled larger of box and doubling, their build and the 2-D spectra
_MAX_STUDY_BYTES = 1 << 29
# largest hgs sinc --random: about 0.7 GB at about 1.4 KB a point
_MAX_RANDOM_POINTS = 1 << 19

# accepted range of each numeric setting, checked whatever its source
_RANGES = {
    "alpha": (lambda v: 0 < v < math.inf, "a positive finite number"),
    "beta": (lambda v: 0 < v < math.inf, "a positive finite number"),
    "lambda_nodes": (lambda v: 1 <= v <= _MAX_LAMBDA_NODES,
                     f"a positive integer up to {_MAX_LAMBDA_NODES}"),
    "lambda_min": (lambda v: 0 < v < math.inf, "a positive finite number"),
    "seed": (lambda v: v >= 0, "a nonnegative integer"),
    "tol": (lambda v: 0 <= v < math.inf, "a nonnegative finite number"),
}

# flags a command would ignore, and why; config-file keys stay accepted
_IGNORED = {
    "verify-canonical": (("bounds",), "its Gram check uses the box 3,3,3"),
    "sinc": (("alpha", "beta", "bounds", "tol", "lambda_min"),
             "it tabulates the unit-lattice kernel with the spectral "
             "cut-off 1e-8 and checks no tolerance"),
    "sample": (("lambda_min", "tol"), "it uses the spectral cut-off 1e-3 "
               "and fixed acceptance bounds"),
}


def _spectral_set(cfg, nodes):
    """The --spectrum set, refused before any grid is laid out when its
    intervals at nodes nodes each would exceed _MAX_LAMBDA_NODES."""
    E = SpectralSet.parse(cfg["spectrum"])
    if len(E.intervals) * nodes > _MAX_LAMBDA_NODES:
        raise HgsError(f"bad lambda_nodes {cfg['lambda_nodes']!r}; expected "
                       f"at most {_MAX_LAMBDA_NODES} nodes over all "
                       f"{len(E.intervals)} spectral intervals")
    return E


def _load_config(path):
    """key value lines, same shape as the field file header records."""
    out = {}
    error = lambda msg, lineno: HgsError(f"config line {lineno}: {msg}")
    for lineno, line in _ascii_lines(path, error):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise error("expected 'key value'", lineno)
        out[parts[0]] = parts[1]
    return out


def _resolve(args, config):
    """Apply the precedence chain onto a plain dict."""
    merged = dict(DEFAULTS)
    raw = [(f"config key {key!r}", key, val) for key, val in config.items()]
    if "HGS_SEED" in os.environ:
        raw.insert(0, ("HGS_SEED", "seed", os.environ["HGS_SEED"]))
    for source, key, val in raw:
        if key not in DEFAULTS:
            raise HgsError(f"unknown config key {key!r}")
        try:
            merged[key] = type(DEFAULTS[key])(val)
        except ValueError:
            raise HgsError(f"{source}: bad value {val!r}") from None
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key, (ok, want) in _RANGES.items():
        if not ok(merged[key]):
            raise HgsError(f"bad {key} {merged[key]!r}; expected {want}")
    keys, why = _IGNORED[args.command]
    for key in keys:
        if getattr(args, key) is not None:
            raise HgsError(f"--{key.replace('_', '-')} does not apply to "
                           f"{args.command}: {why}")
    return merged


def _parse_triple(text, kind, what, extra_columns=False):
    """Three comma-separated finite values of the given kind, e.g. bounds
    k,l,m or a point x,y,z; extra_columns allows and drops further values."""
    parts = text.split(",")
    try:
        if len(parts) == 3 or (extra_columns and len(parts) > 3):
            vals = tuple(kind(p) for p in parts[:3])
            if not all(map(math.isfinite, vals)):
                raise HgsError(f"bad {what} {text.strip()!r}; values must "
                               "be finite")
            return vals
    except ValueError:
        pass
    raise HgsError(f"bad {what} {text.strip()!r}; expected three "
                   f"comma-separated {kind.__name__} values")


def _emit(report, args):
    lines = []
    for chk in report["checks"]:
        status = ("info" if chk.get("informational")
                  else "pass" if chk["passed"] else "FAIL")
        detail = chk.get("detail", "")
        lines.append(f"{chk['name']:<28} {status:<5} {detail}")
    lines.append(f"{'overall':<28} "
                 f"{'pass' if report['passed'] else 'FAIL'}")
    print("\n".join(lines))
    _write_report(report, args)


def _write_report(report, args):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=2, default=_json_default)
            fh.write("\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)!r}")


def _base_report(name, cfg, args):
    report = {"command": name, "config": cfg, "checks": []}
    if not getattr(args, "no_timestamp", False):
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                            time.gmtime())
    return report


def _check(report, name, passed, detail="", informational=False):
    """Append a check row.  An informational row records a reading that
    has no verdict: its passed is None and the overall result ignores it."""
    row = {"name": name, "passed": None if informational else bool(passed),
           "detail": detail}
    if informational:
        row["informational"] = True
    report["checks"].append(row)


def _overall(report):
    return all(c["passed"] for c in report["checks"]
               if not c.get("informational"))


# ---------------------------------------------------------------------------
# verify-canonical


def cmd_verify_canonical(args):
    cfg = _resolve(args, _load_config(args.config) if args.config else {})
    spec = QuasiLatticeSpec(cfg["alpha"], cfg["beta"])
    E = _spectral_set(cfg, max(cfg["lambda_nodes"], 512))
    grid = lambda_grid(E, cfg["lambda_nodes"], cfg["lambda_min"])
    e = canonical_field(grid)
    tol = cfg["tol"]
    report = _base_report("verify-canonical", cfg, args)
    if not spec.is_integer:
        _check(report, "lattice-integer-note", None,
               "alpha, beta not both integers (informational)",
               informational=True)

    verdict = gabor_field_verdict(e, spec, tol=max(tol, 1e-12))
    _check(report, "gabor-field", verdict.passed,
           f"worst residual {verdict.worst_residual:.3e}, "
           f"worst norm error {verdict.worst_norm_error:.3e}")

    pairs = [(lam, two_slice_field(e, lam, seed=cfg["seed"] + i))
             for i, lam in enumerate(jittered_unit_grid(8).tolist())]
    worst = max(map(abs, orthogonality_residuals(e, pairs, kmax=8,
                                                 spec=spec).tolist()))
    _check(report, "orthogonality", worst <= max(tol, 1e-10),
           f"max |residual| {worst:.3e} over 8 spectral points")

    if spec == SPEC_UNIT:
        pts = jittered_unit_grid(16)
        theta_rep = theta_delta_report(e, spec, (pts, pts), kmax=2, lmax=8)
        theta_ok = (theta_rep.dev_zero <= max(tol, 1e-10)
                    and theta_rep.dev_nonzero <= max(tol, 1e-10))
        _check(report, "theta-criterion", theta_ok,
               f"sup|T0-1| {theta_rep.dev_zero:.3e}, "
               f"sup|Tk| {theta_rep.dev_nonzero:.3e}")
    else:
        # Theta_k = delta_k characterizes orthonormality on Z^3 only
        _check(report, "theta-criterion", None,
               "not applicable off the unit lattice", informational=True)

    fine = lambda_grid(E, max(cfg["lambda_nodes"], 512), 1e-3)
    gram = onb_gram_check(canonical_field(fine), spec, (3, 3, 3), tol=1e-3)
    _check(report, "gram-orthonormality", gram.passed,
           f"max |gram - delta| {gram.max_deviation:.3e} "
           f"at {gram.worst_index.astuple()}")

    dens = interpolation_verdict(E, spec)
    _check(report, "density", dens.interpolation,
           f"mu(E) {dens.mu_E:.6g}, target {dens.target:.6g}, "
           f"ab<=1 {dens.ab_leq_one}, window {dens.E_in_window}")

    report["passed"] = _overall(report)
    _emit(report, args)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# sinc


def cmd_sinc(args):
    cfg = _resolve(args, _load_config(args.config) if args.config else {})
    if args.random is not None and not 0 <= args.random <= _MAX_RANDOM_POINTS:
        raise HgsError(f"bad --random {args.random}; expected a point count "
                       f"from 0 to {_MAX_RANDOM_POINTS}")
    n = max(cfg["lambda_nodes"], 256)
    E = _spectral_set(cfg, n)
    grid = gauss_lambda_grid(E, n, lambda_min=1e-8, order=8)
    e = canonical_field(grid)
    points = [_parse_triple(text, float, "point")
              for text in args.point or []]
    if args.points_file:
        try:
            lines = list(_ascii_lines(args.points_file, FieldFormatError))
        except (OSError, ValueError) as exc:
            raise HgsError(f"unreadable points file: {exc}") from None
        points.extend(_parse_triple(line, float, f"point on line {lineno}",
                                    extra_columns=True)
                      for lineno, line in lines if line.strip())
    # the oracle's phase e^{2 pi i lam (z - y u)}, 0 <= u <= 1, turns at
    # most once per Gauss panel while |y| + |z| <= 1 / width; there it
    # stays within 3e-8 of criterion 7's closed forms, at twice that reach
    # it is off by 3e-4
    reach = 1.0 / _gauss_panel_width(E, n, 1e-8, 8)
    for x, y, z in points:
        if abs(y) + abs(z) > reach:
            raise HgsError(f"point {x!r},{y!r},{z!r} lies past the oracle's "
                           f"reach |y| + |z| <= {reach:.6g} on {n} nodes per "
                           "spectral interval; --lambda-nodes raises it")
    if args.random:
        points.extend(seeded_strip_points(args.random, seed=cfg["seed"]))
    rep = sinc_compare(points, grid, e)
    rows = ["x,y,z,s_re,s_im,s0_re,s0_im,s1_re,s1_im,"
            "s0_printed_re,s0_printed_im"]
    for r in rep.rows:
        s = r.s0_quad + r.s1_quad
        rows.append(",".join(f"{v:.17g}" for v in (
            *r.point, s.real, s.imag, r.s0_quad.real, r.s0_quad.imag,
            r.s1_quad.real, r.s1_quad.imag,
            r.s0_printed.real, r.s0_printed.imag)))
    csv_text = "\n".join(rows) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    report = _base_report("sinc", cfg, args)
    report["n_points"] = len(points)
    # the oracle arbitrates between the two readings, so these rows are
    # readings, not verdicts
    _check(report, "s0-closed-vs-oracle", None,
           f"matching reading {rep.matching_s0_reading!r}, "
           f"dev printed {rep.max_deviation('s0_printed'):.3e}, "
           f"derived {rep.max_deviation('s0_derived'):.3e}",
           informational=True)
    _check(report, "s1-closed-vs-oracle", None,
           f"matching reading {rep.matching_s1_reading!r}, "
           f"dev printed {rep.max_deviation('s1_printed'):.3e}, "
           f"derived {rep.max_deviation('s1_derived'):.3e}",
           informational=True)
    report["passed"] = _overall(report)
    _write_report(report, args)
    return 0


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args):
    cfg = _resolve(args, _load_config(args.config) if args.config else {})
    spec = QuasiLatticeSpec(cfg["alpha"], cfg["beta"])
    E = SpectralSet.parse(cfg["spectrum"])
    nodes = max(cfg["lambda_nodes"], 512)
    bounds = _parse_triple(cfg["bounds"], int, "bounds")
    # the doubled box always holds the straddling atom
    doubled = (min(2 * bounds[0], 128),
               max(min(2 * bounds[1], 128), bounds[1] + 2),
               min(2 * bounds[2], 128))
    k, l, m = (max(b, d) for b, d in zip(bounds, doubled))
    # e's Gram tables at the offsets where its 1-wide slices overlap, their
    # build (no interval gets over `nodes` nodes) and the norm's 2-D spectra
    live = 1 + 2 * sum(r * spec.alpha < 1 for r in range(1, 2 * k + 1))
    n, span_l, span_m = len(E.intervals) * nodes, 4 * l + 1, 4 * m + 1
    study = 16 * (live * (2 * k + 1) * span_l * span_m
                  + (live + 3) * n * (span_l + _TILE)
                  + 2 * n * (span_m + _TILE)
                  + (2 * k + 4) * _fft_size(span_l) * _fft_size(span_m))
    if min(bounds) < 0 or study > _MAX_STUDY_BYTES or math.prod(
            2 * b + 1 for b in bounds) > _MAX_BOX_SAMPLES:
        raise HgsError(f"bad bounds {cfg['bounds']!r}; expected three "
                       "nonnegative int values spanning at most "
                       f"{_MAX_BOX_SAMPLES} samples, with study arrays of "
                       f"at most {_MAX_STUDY_BYTES} bytes at {nodes} nodes "
                       "per interval")
    grid = lambda_grid(E, nodes, 1e-3)
    e = canonical_field(grid)
    # one build of e's tables serves every study below
    _self_table(e, spec, k, 2 * k, 2 * l, 2 * m)
    inner = tuple(min(b, max(1, b // 2)) for b in bounds)
    suite = atom_suite(e, spec, n_functions=2, n_atoms=8, box=inner,
                       seed=cfg["seed"])
    # a straddling function with one atom outside the base box makes the
    # doubling row show genuine truncation-error decay
    straddle = atom_suite(e, spec, n_functions=1, n_atoms=6, box=inner,
                          seed=cfg["seed"] + 1,
                          extra_indices=[(0, bounds[1] + 2, 0)])
    report = _base_report("sample", cfg, args)
    dens = interpolation_verdict(E, spec)
    _check(report, "density", True,
           f"interpolation={dens.interpolation} mu(E)={dens.mu_E:.6g} "
           f"target={dens.target:.6g}")
    c = dens.c
    table = []
    ok = True
    for f in suite.fields():
        row = reconstruction_study(f, e, spec, bounds, c)
        table.append({"bounds": list(bounds), "ratio": row["ratio"],
                      "recon": row["recon_error"], "kind": "in-box"})
        ok = ok and abs(row["ratio"] - 1.0) <= 0.01 \
            and row["recon_error"] <= 5e-2
    err0 = max(r["recon"] for r in table)
    dev0 = max(abs(r["ratio"] - 1.0) for r in table)
    _check(report, "isometry-ratio", ok,
           f"max |ratio-1| {dev0:.3e}, max recon err {err0:.3e}")
    fs = straddle.fields()[0]
    errs = []
    for b in (tuple(min(s, 128) for s in bounds), doubled):
        row = reconstruction_study(fs, e, spec, b, c)
        errs.append(row["recon_error"])
        table.append({"bounds": list(b), "ratio": row["ratio"],
                      "recon": row["recon_error"], "kind": "straddling"})
    _check(report, "doubling", errs[1] <= max(0.5 * errs[0], 1e-3),
           f"straddling recon err {errs[0]:.3e} -> {errs[1]:.3e} "
           "under bound doubling")
    report["table"] = table
    report["passed"] = _overall(report)
    _emit(report, args)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# density


def cmd_density(argv):
    if len(argv) != 3:
        sys.stderr.write(
            "usage: hgs density INTERVALS ALPHA BETA\n"
            "  e.g. hgs density -1,1 1 1\n")
        return 2
    try:
        E = SpectralSet.parse(argv[0])
        spec = QuasiLatticeSpec(float(argv[1]), float(argv[2]))
    except (HgsError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    v = interpolation_verdict(E, spec)
    print(f"mu(E)          {v.mu_E:.12g}")
    print(f"target 1/ab    {v.target:.12g}")
    print(f"c              {v.c:.12g}")
    print(f"interpolation  {str(v.interpolation).lower()}")
    print(f"ab <= 1        {str(v.ab_leq_one).lower()}")
    print(f"E in window    {str(v.E_in_window).lower()}")
    print(f"integer a,b    {str(v.lattice_integer).lower()}")
    return 0 if v.interpolation else 1


# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--spectrum", type=str,
                   help="intervals a,b[;a,b...]")
    p.add_argument("--lambda-nodes", dest="lambda_nodes", type=int)
    p.add_argument("--lambda-min", dest="lambda_min", type=float)
    p.add_argument("--bounds", type=str, help="truncation box k,l,m")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out", type=str, help="write the JSON report here")
    p.add_argument("--no-timestamp", dest="no_timestamp",
                   action="store_true")
    p.add_argument("--config", type=str, help="key/value config file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hgs",
        description="Verification suite for Gabor fields, sampling and "
                    "interpolation on the Heisenberg group.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("verify-canonical",
                       help="run the interpolating-field checks")
    _add_common(p)
    p = sub.add_parser("sinc", help="evaluate the reconstruction kernel")
    _add_common(p)
    p.add_argument("--point", action="append",
                   help="x,y,z evaluation point (repeatable)")
    p.add_argument("--points-file", type=str)
    p.add_argument("--random", type=int,
                   help="add N seeded points inside the strip")
    p.add_argument("--csv", type=str, help="write the point table here")
    p = sub.add_parser("sample", help="sampling and reconstruction study")
    _add_common(p)
    sub.add_parser("density",
                   help="density verdict: hgs density INTERVALS ALPHA BETA")
    return parser


def _merge_negative_values(argv):
    """Join '--flag -0.5,0.5' into '--flag=-0.5,0.5' so argparse does not
    mistake negative-number values for options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok.startswith("--") and "=" not in tok and nxt is not None
                and len(nxt) > 1 and nxt[0] == "-"
                and (nxt[1].isdigit() or nxt[1] == ".")):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # the density arguments look like options (-1,1), so route them by hand
    if argv and argv[0] == "density":
        return cmd_density(argv[1:])
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    command = {"verify-canonical": cmd_verify_canonical, "sinc": cmd_sinc,
               "sample": cmd_sample}[args.command]
    try:
        return command(args)
    except (HgsError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
