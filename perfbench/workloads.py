"""The benchmark workloads.

Four parts (sinc, parseval, reconstruct, unfold) each build their inputs
once from the benchmark seed (their set-up) and run a fixed list of ops per
pass.  A workload runs two parts one after the other in every pass:
`loops` = sinc + unfold, where the time goes into per-point and per-node
Python loops (scalar spectral-profile calls, thousands of tiny Window
objects), and `arrays` = parseval + reconstruct, where it goes into a few
very large array calls (lattice coefficient sweeps, term-pair joins, dense
reconstruction).  Pairing them makes a pass long enough that a run can be
long: the host's speed drifts within a minute, and fewer, longer runs
average more of that drift than four workloads could in the same total
time.  An op is one verification run
that a user or the acceptance suite performs, at the criterion's own grid
and box sizes; it calls hgs's public entry points (or `hgs.cli.main`
in-process) and checks every output against the criterion's own bound,
independently of the program's own pass/fail verdicts.

The seed reaches the program only as generated inputs: atom-suite and
two-slice-field seeds, `seeded_strip_points`, and the CLI's `--seed`.  A
run derives several input sets from its seed (the first one from the seed
itself) and pass i uses set i mod the set count: the cost of an op depends
on its inputs (in `hgs sinc`, each point's spectral profile runs either
the series or the recurrence branch of the moment kernel), so a run's
median has to average over more inputs than one pass holds for runs at
different seeds to agree.  Passes that reuse a set must reproduce its
outputs byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hgs import canonical, cli, fieldcheck, gabor, grids, sampling, sinc, \
    testfields, windows
from hgs.canonical import canonical_field
from hgs.fieldcheck import (coefficient_cross_orthogonality,
                            gabor_field_verdict, jittered_unit_grid,
                            lattice_coefficients, orthogonality_residual,
                            parseval_residual, theta_delta_report)
from hgs.grids import (FieldSample, LambdaGrid, SpectralSet,
                       gauss_lambda_grid, lambda_grid)
from hgs.group import QuasiLatticeSpec
from hgs.sampling import (interpolation_verdict, onb_gram_check,
                          reconstruct, reconstruction_study,
                          sample_on_lattice)
from hgs.sinc import (S0_closed, S1_closed, S_quadrature,
                      seeded_strip_points)
from hgs.testfields import atom_suite, two_slice_field
from hgs.windows import Window

SPEC = QuasiLatticeSpec(1, 1)
E_FULL = SpectralSet([(-1.0, 1.0)])

# Points or fields per pass, and input sets per run.  Grids and boxes are
# always the criteria's own; the counts are scaled down from the criteria
# (criterion 7: 100 points, criterion 3: 24 atoms, criterion 8: 5 in-box
# functions, criterion 6: 3 functions, criterion 2: 20 fields, the
# cross-orthogonality test: 2 functions) so that a run can take its median
# over many passes.  The warm-up and the first timed pass both use the first
# input set, and later passes revisit sets, so every run re-checks byte
# identity.  "tiny" is for the self-tests only.
SIZES = {
    "full": {"sinc_points": 10, "parseval_functions": 10,
             "parseval_atoms": 12, "recon_inbox": 1, "recon_ratio": 1,
             "ortho_fields": 4, "cross_functions": 1,
             "sets": {"sinc": 10, "parseval": 4, "reconstruct": 2,
                      "unfold": 4}},
    "tiny": {"sinc_points": 1, "parseval_functions": 1,
             "parseval_atoms": 2, "recon_inbox": 1, "recon_ratio": 1,
             "ortho_fields": 1, "cross_functions": 1,
             "sets": {"sinc": 2, "parseval": 2, "reconstruct": 2,
                      "unfold": 2}},
}

# Layer metrics: <module>.<function> of the package modules.  `group` and
# `errors` are left out: they do O(1) work per call.
LAYERS = [
    ("cli.cmd_sinc", cli.cmd_sinc),
    ("cli.cmd_sample", cli.cmd_sample),
    ("cli.cmd_verify_canonical", cli.cmd_verify_canonical),
    ("sinc.sinc_compare", sinc.sinc_compare),
    ("sinc.S_quadrature", sinc.S_quadrature),
    ("sinc._s1_numeric", sinc._s1_numeric),
    ("sinc.G_xy", sinc.G_xy),
    ("canonical.sinc_intervals", canonical.sinc_intervals),
    ("canonical.canonical_field", canonical.canonical_field),
    ("windows.centered_moments", windows.centered_moments),
    ("windows.interval_moments", windows.interval_moments),
    ("windows.paired_inner_sweep", windows.paired_inner_sweep),
    ("windows.Window.product_conj", windows.Window.product_conj),
    ("windows.Window.inner_freq_sweep", windows.Window.inner_freq_sweep),
    ("windows.Window.__call__", windows.Window.__call__),
    ("windows.Window.__init__", windows.Window.__init__),
    ("grids.field_inner_per_node", grids.field_inner_per_node),
    ("grids._cross_join", grids._cross_join),
    ("grids.FieldSample.slice_at", grids.FieldSample.slice_at),
    ("grids.FieldSample.heisenberg_translate",
     grids.FieldSample.heisenberg_translate),
    ("grids.lambda_grid", grids.lambda_grid),
    ("grids.gauss_lambda_grid", grids.gauss_lambda_grid),
    ("fieldcheck.lattice_coefficients", fieldcheck.lattice_coefficients),
    ("fieldcheck.parseval_residual", fieldcheck.parseval_residual),
    ("fieldcheck.orthogonality_residual", fieldcheck.orthogonality_residual),
    ("fieldcheck.coefficient_cross_orthogonality",
     fieldcheck.coefficient_cross_orthogonality),
    ("fieldcheck.theta_delta_report", fieldcheck.theta_delta_report),
    ("fieldcheck.gabor_field_verdict", fieldcheck.gabor_field_verdict),
    ("gabor.painless_residual", gabor.painless_residual),
    ("sampling.reconstruction_study", sampling.reconstruction_study),
    ("sampling.sample_on_lattice", sampling.sample_on_lattice),
    ("sampling.reconstruct", sampling.reconstruct),
    ("sampling._reconstruction_norm2_fast",
     sampling._reconstruction_norm2_fast),
    ("sampling.onb_gram_check", sampling.onb_gram_check),
    ("testfields.AtomSuite.atoms", testfields.AtomSuite.atoms),
    ("testfields.AtomSuite.fields", testfields.AtomSuite.fields),
    ("testfields.two_slice_field", testfields.two_slice_field),
]


class Checks:
    """Counts checks attempted and keeps a message per failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def within(self, name, value, bound):
        """value <= bound; NaN fails."""
        self.expect(name, value <= bound, f"{value!r} exceeds {bound!r}")


def input_seeds(seed, count):
    """The run's seed, then count - 1 seeds derived from it."""
    derived = np.random.SeedSequence(seed).generate_state(count - 1)
    return [seed] + [int(s) for s in derived]


def current(ctx):
    """(index, inputs) of the input set this pass uses."""
    k = ctx["pass"] % len(ctx["sets"])
    return k, ctx["sets"][k]


def expect_same_bytes(chk, ctx, name, data):
    """Deterministic output must not change between passes of a run; the
    first pass's bytes are the reference."""
    ref = ctx["reference"].setdefault(name, data)
    chk.expect(f"{name}.identical", data == ref,
               "bytes differ from the first pass")


def checked_cli(chk, ctx, span, name, argv):
    """hgs.cli.main(argv) in-process with its console output captured;
    checks exit code 0 and byte-identical console and file output."""
    out, err = io.StringIO(), io.StringIO()
    with span("cli.main"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    chk.expect(f"{name}.exit", code == 0,
               f"exit code {code}: {err.getvalue()}")
    expect_same_bytes(chk, ctx, f"{name}.stdout", out.getvalue().encode())
    for path in ctx["files"]:
        expect_same_bytes(chk, ctx, f"{name}.{Path(path).name}",
                          Path(path).read_bytes())


# ---------------------------------------------------------------------------
# sinc: criterion 7 through `hgs sinc`, plus its strip-zero and identity
# points through S_quadrature


def check_sinc_csv(chk, text, points, bound=1e-6, eps=1e-3):
    """Recompute both closed-form deviations from the CSV of `hgs sinc`
    (which marks those rows passed whatever they read): the derived s0
    reading and S1_closed must match the oracle within criterion 7's
    bound, and the printed s0 reading must lose."""
    rows = list(csv.DictReader(io.StringIO(text)))
    chk.expect("sinc.csv.rows", len(rows) == len(points),
               f"{len(rows)} rows for {len(points)} points")
    dev0 = dev1 = dev_printed = 0.0
    for row, pt in zip(rows, points):
        x, y, z = (float(row[k]) for k in ("x", "y", "z"))
        chk.expect("sinc.csv.point", (x, y, z) == tuple(pt),
                   f"row point {(x, y, z)} is not {tuple(pt)}")
        s0 = complex(float(row["s0_re"]), float(row["s0_im"]))
        s1 = complex(float(row["s1_re"]), float(row["s1_im"]))
        s = complex(float(row["s_re"]), float(row["s_im"]))
        printed = complex(float(row["s0_printed_re"]),
                          float(row["s0_printed_im"]))
        chk.expect("sinc.csv.sum", abs(s - (s0 + s1)) <= 1e-12 * (1 + abs(s)),
                   f"s {s} is not s0 + s1 at {pt}")
        chk.expect("sinc.csv.printed",
                   printed == S0_closed(x, y, z, reading="printed"),
                   f"printed s0 column disagrees at {pt}")
        dev0 = max(dev0, abs(S0_closed(x, y, z, reading="derived") - s0)
                   / (abs(s0) + eps))
        dev1 = max(dev1, abs(S1_closed(x, y, z) - s1) / (abs(s1) + eps))
        dev_printed = max(dev_printed, abs(printed - s0) / (abs(s0) + eps))
    chk.within("sinc.s0_derived_deviation", dev0, bound)
    chk.within("sinc.s1_deviation", dev1, bound)
    chk.expect("sinc.printed_reading_loses", dev_printed > dev0,
               f"printed {dev_printed:.3e} vs derived {dev0:.3e}")


def sinc_setup(seed, size, work):
    n = size["sinc_points"]
    grid = gauss_lambda_grid(E_FULL, 4096, lambda_min=1e-8, order=8)
    e = canonical_field(grid)
    files = (work / "sinc.csv", work / "sinc.json")
    sets = [{"points": seeded_strip_points(n, seed=s),
             "argv": ["sinc", "--lambda-nodes", "4096", "--random", str(n),
                      "--seed", str(s), "--csv", str(files[0]),
                      "--out", str(files[1]), "--no-timestamp"]}
            for s in input_seeds(seed, size["sets"]["sinc"])]
    return {"grid": grid, "e": e, "files": files, "sets": sets}


def sinc_cli(ctx, chk, span):
    k, inp = current(ctx)
    checked_cli(chk, ctx, span, f"sinc[{k}]", inp["argv"])
    check_sinc_csv(chk, ctx["files"][0].read_text(), inp["points"])
    report = json.loads(ctx["files"][1].read_text())
    chk.expect("sinc.report.n_points",
               report.get("n_points") == len(inp["points"]),
               f"n_points {report.get('n_points')}")


def sinc_criterion7_points(ctx, chk, span):
    grid, e = ctx["grid"], ctx["e"]
    frozen = S0_closed(0.5, 1.0, 1.0)
    chk.within("c7.frozen", abs(frozen - (-1.0 / (3.0 * math.pi ** 2))), 1e-9)
    for (x, y, z) in [(1.0, 0.2, 0.3), (1.5, 0.2, 0.3), (-2.0, 1.0, 0.5)]:
        with span("sinc.S_quadrature"):
            val = S_quadrature(x, y, z, grid, e).s
        chk.within("c7.strip_zero", abs(val), 1e-12)
    with span("sinc.S_quadrature"):
        ident = S_quadrature(0.0, 0.0, 0.0, grid, e).s
    chk.within("c7.identity_mass", abs(ident - grid.mass()), 1e-12)
    chk.within("c7.identity_one", abs(ident - 1.0), 1e-12)


# ---------------------------------------------------------------------------
# parseval: criterion 3 and criterion 5 on the 1024-node midpoint grid


def fine_field(n=1024):
    grid = lambda_grid(E_FULL, n, 1e-3)
    return canonical_field(grid)


def parseval_setup(seed, size, work):
    e = fine_field()
    sets = [{"suite": atom_suite(e, SPEC,
                                 n_functions=size["parseval_functions"],
                                 n_atoms=size["parseval_atoms"],
                                 box=(2, 8, 4), seed=s)}
            for s in input_seeds(seed, size["sets"]["parseval"])]
    return {"e": e, "sets": sets}


def parseval_criterion3(ctx, chk, span):
    e, suite = ctx["e"], current(ctx)[1]["suite"]
    with span("fieldcheck.parseval_residual"):
        base = parseval_residual(e, SPEC, suite, 4, 32, 16)
    with span("fieldcheck.parseval_residual"):
        doubled = parseval_residual(e, SPEC, suite, 8, 64, 32)
    chk.within("c3.residual", base, 1e-2)
    chk.within("c3.doubled", doubled, max(2.0 * base, 1e-3))


def parseval_criterion5(ctx, chk, span):
    with span("sampling.onb_gram_check"):
        rep = onb_gram_check(ctx["e"], SPEC, (3, 3, 3), tol=1e-3)
    chk.within("c5.gram_deviation", rep.max_deviation, 1e-3)


# ---------------------------------------------------------------------------
# reconstruct: criterion 8, criterion 6's isometry ratios, `hgs sample`, and
# one dense reconstruction cross-checked against the fast path


def check_dense_fast(chk, dense, fast, rel=1e-3):
    """Dense and fast reconstruction errors agree within rel."""
    chk.within("dense.vs_fast", abs(dense - fast), rel * abs(fast))


def check_sample_table(chk, table):
    """`hgs sample`'s own rows against the criteria's bounds."""
    inbox = [r for r in table if r["kind"] == "in-box"]
    straddle = [r["recon"] for r in table if r["kind"] == "straddling"]
    chk.expect("sample.rows", len(inbox) == 2 and len(straddle) == 2,
               f"{len(inbox)} in-box and {len(straddle)} straddling rows")
    for r in inbox:
        chk.within("sample.ratio", abs(r["ratio"] - 1.0), 0.01)
        chk.within("sample.recon", r["recon"], 5e-2)
    if len(straddle) == 2:
        chk.within("sample.doubling", straddle[1],
                   max(0.5 * straddle[0], 1e-3))


def reconstruct_setup(seed, size, work):
    e = fine_field()
    e256 = fine_field(256)
    out_path = work / "sample.json"
    sets = [{
        "inbox": atom_suite(e, SPEC, n_functions=size["recon_inbox"],
                            n_atoms=16, box=(1, 8, 4), seed=s + 8).fields(),
        "straddle": atom_suite(e, SPEC, n_functions=1, n_atoms=8,
                               box=(1, 8, 4), seed=s + 9,
                               extra_indices=[(0, 24, 0)]).fields()[0],
        "ratio_fields": atom_suite(e, SPEC, n_functions=size["recon_ratio"],
                                   n_atoms=12, box=(2, 8, 4),
                                   seed=s + 6).fields(),
        "dense_f": atom_suite(e256, SPEC, n_functions=1, n_atoms=16,
                              box=(1, 8, 4), seed=s + 8).fields()[0],
        "argv": ["sample", "--seed", str(s), "--out", str(out_path),
                 "--no-timestamp"]}
        for s in input_seeds(seed, size["sets"]["reconstruct"])]
    return {"e": e, "e256": e256, "files": (out_path,), "sets": sets}


def reconstruct_criterion8(ctx, chk, span):
    e, inp = ctx["e"], current(ctx)[1]
    for f in inp["inbox"]:
        with span("sampling.reconstruction_study"):
            err = reconstruction_study(f, e, SPEC, (3, 16, 8),
                                       1.0)["recon_error"]
        chk.within("c8.inbox", err, 5e-2)
    with span("sampling.reconstruction_study"):
        base = reconstruction_study(inp["straddle"], e, SPEC, (3, 16, 8),
                                    1.0)["recon_error"]
    with span("sampling.reconstruction_study"):
        doubled = reconstruction_study(inp["straddle"], e, SPEC,
                                       (6, 32, 16), 1.0)["recon_error"]
    chk.expect("c8.doubling_decays", doubled < base,
               f"{doubled:.3e} >= {base:.3e}")
    chk.within("c8.doubled", doubled, 5e-2)


def reconstruct_criterion6(ctx, chk, span):
    v1 = interpolation_verdict(E_FULL, SPEC)
    v2 = interpolation_verdict(SpectralSet([(-0.5, 0.5)]), SPEC)
    dense = [interpolation_verdict(E_FULL, s) for s in (
        QuasiLatticeSpec(2, 2), QuasiLatticeSpec(1.5, 1),
        QuasiLatticeSpec(1, 1.0001))]
    chk.expect("c6.verdicts",
               v1.interpolation and v1.mu_E == 1.0 and v1.target == 1.0
               and not v2.interpolation and v2.mu_E == 0.25
               and all(not v.interpolation and not v.ab_leq_one
                       for v in dense), "density verdicts")
    for f in current(ctx)[1]["ratio_fields"]:
        with span("sampling.reconstruction_study"):
            ratio = reconstruction_study(f, ctx["e"], SPEC, (4, 32, 16),
                                         1.0)["ratio"]
        chk.within("c6.ratio", abs(ratio - 1.0), 0.01)


def reconstruct_sample_cli(ctx, chk, span):
    k, inp = current(ctx)
    checked_cli(chk, ctx, span, f"sample[{k}]", inp["argv"])
    report = json.loads(ctx["files"][0].read_text())
    check_sample_table(chk, report.get("table", []))


def reconstruct_dense(ctx, chk, span):
    f, e = current(ctx)[1]["dense_f"], ctx["e256"]
    with span("sampling.sample_on_lattice"):
        samples = sample_on_lattice(f, e, SPEC, (3, 16, 8))
    with span("sampling.reconstruct"):
        r = reconstruct(samples, e, 1.0)
    with span("grids.FieldSample.norm2"):
        dense = math.sqrt(max((f - r).norm2(), 0.0) / f.norm2())
    with span("sampling.reconstruction_study"):
        fast = reconstruction_study(f, e, SPEC, (3, 16, 8),
                                    1.0)["recon_error"]
    check_dense_fast(chk, dense, fast)
    chk.within("dense.recon", dense, 5e-2)


# ---------------------------------------------------------------------------
# unfold: criteria 2, 4 and 1, coefficient cross-orthogonality, and
# `hgs verify-canonical`


def unfold_setup(seed, size, work):
    coarse = canonical_field(lambda_grid(E_FULL, 64, 0.05))
    lams = jittered_unit_grid(16)
    # negative control: duplicated wide slice breaks the interlocking
    neg = FieldSample.from_windows(
        LambdaGrid(np.array([-0.5, 0.5]), np.ones(2), 1e-9, E_FULL,
                   "twoslice"),
        [Window.indicator(0, 2, math.sqrt(0.5))] * 2)
    mid = fine_field(512)
    out_path = work / "verify.json"
    sets = [{
        "two_slices": [(float(lam), two_slice_field(coarse, float(lam),
                                                    seed=s + 31 * j + i))
                       for j in range(size["ortho_fields"])
                       for i, lam in enumerate(lams)],
        "cross_suite": atom_suite(mid, SPEC,
                                  n_functions=size["cross_functions"],
                                  n_atoms=6, box=(1, 3, 2), seed=s + 7),
        "argv": ["verify-canonical", "--seed", str(s),
                 "--out", str(out_path), "--no-timestamp"]}
        for s in input_seeds(seed, size["sets"]["unfold"])]
    return {"coarse": coarse, "neg": neg, "mid": mid, "fine": fine_field(),
            "files": (out_path,), "sets": sets}


def unfold_criterion2(ctx, chk, span):
    e = ctx["coarse"]
    worst = 0.0
    for lam, f in current(ctx)[1]["two_slices"]:
        with span("fieldcheck.orthogonality_residual"):
            val = orthogonality_residual(e, f, lam, kmax=8)
        worst = max(worst, abs(val))
    chk.within("c2.residual", worst, 1e-10)
    with span("fieldcheck.orthogonality_residual"):
        neg = abs(orthogonality_residual(ctx["neg"], ctx["neg"], 0.5,
                                         kmax=8))
    chk.expect("c2.negative_control", neg > 1e-2, f"{neg:.3e} <= 1e-2")


def unfold_cross_orthogonality(ctx, chk, span):
    with span("fieldcheck.coefficient_cross_orthogonality"):
        val = coefficient_cross_orthogonality(
            ctx["mid"], SpectralSet([(-1.0, 0.0)]), SpectralSet([(0.0, 1.0)]),
            current(ctx)[1]["cross_suite"], trunc=(4, 32, 16))
    chk.within("cross_orthogonality", val, 1e-6)


def unfold_criterion4(ctx, chk, span):
    e = ctx["coarse"]
    pts = jittered_unit_grid(32)
    with span("fieldcheck.theta_delta_report"):
        rep = theta_delta_report(e, SPEC, (pts, pts), kmax=4, lmax=16)
    chk.within("c4.theta_zero", rep.dev_zero, 1e-10)
    chk.within("c4.theta_nonzero", rep.dev_nonzero, 1e-10)
    # duality: Fourier coefficients of Theta_k against Gram entries
    n_quad = 64
    qpts = (np.arange(n_quad) + 0.5 ** 0.5) / n_quad
    with span("fieldcheck.theta_delta_report"):
        theta_rep = theta_delta_report(e, SPEC, (qpts, qpts), kmax=2,
                                       lmax=16)
    with span("fieldcheck.lattice_coefficients"):
        gram = np.conj(lattice_coefficients([ctx["fine"]], ctx["fine"], SPEC,
                                            2, 2, 2)[0])
    idx = np.arange(-2, 3)
    ph_m = np.exp(2j * np.pi * np.outer(idx, qpts))   # (m, lam)
    ph_l = np.exp(-2j * np.pi * np.outer(idx, qpts))  # (l, t)
    worst = 0.0
    for ki, k in enumerate(idx):
        coeff = np.einsum("ij,mi,lj->lm", theta_rep.values[int(k)],
                          ph_m, ph_l) / n_quad ** 2
        worst = max(worst, float(np.max(np.abs(coeff - gram[ki]))))
    chk.within("c4.duality", worst, 1e-3)


def unfold_criterion1(ctx, chk, span):
    with span("fieldcheck.gabor_field_verdict"):
        verdict = gabor_field_verdict(ctx["coarse"], SPEC, tol=1e-12)
    chk.expect("c1.painless_exact",
               all(s.painless is not None for s in verdict.slices),
               "a slice fell back to empirical frame bounds")
    chk.within("c1.painless", verdict.worst_residual, 1e-12)
    chk.within("c1.norm", verdict.worst_norm_error, 0.0)


# `hgs verify-canonical` reports its residuals only inside each check's
# detail text, formatted %.3e, in this order; the criteria's bounds for them
VERIFY_BOUNDS = {"gabor-field": (1e-12, 0.0), "orthogonality": (1e-10,),
                 "theta-criterion": (1e-10, 1e-10),
                 "gram-orthonormality": (1e-3,)}
_SCI = re.compile(r"[-+]?\d\.\d+e[-+]\d+")


def check_verify_report(chk, report):
    """Re-apply the criteria's bounds to the residuals in the report."""
    checks = {c["name"]: c for c in report.get("checks", [])}
    chk.expect("verify.checks",
               set(VERIFY_BOUNDS) | {"density"} <= set(checks),
               f"checks {sorted(checks)}")
    for name, bounds in VERIFY_BOUNDS.items():
        values = [float(v) for v in
                  _SCI.findall(checks.get(name, {}).get("detail", ""))]
        chk.expect(f"verify.{name}.values", len(values) >= len(bounds),
                   f"residuals {values}")
        for value, bound in zip(values, bounds):
            chk.within(f"verify.{name}", abs(value), bound)
    chk.expect("verify.density", checks.get("density", {}).get("passed"),
               "density verdict")


def unfold_verify_cli(ctx, chk, span):
    k, inp = current(ctx)
    checked_cli(chk, ctx, span, f"verify[{k}]", inp["argv"])
    check_verify_report(chk, json.loads(ctx["files"][0].read_text()))


@dataclass(frozen=True)
class Part:
    """Ops sharing one set-up."""
    name: str
    setup: object
    ops: tuple


@dataclass(frozen=True)
class Workload:
    """Parts run one after another in every pass."""
    name: str
    parts: tuple

    def setup(self, seed, size, work, reference):
        """One context per part; all share the byte-identity references."""
        ctxs = [part.setup(seed, size, work) for part in self.parts]
        for ctx in ctxs:
            ctx["reference"] = reference
        return ctxs

    def run_pass(self, ctxs, span, index):
        """Pass number index over every op: (seconds, Checks).  An op that
        raises counts as one failed check."""
        chk = Checks()
        t0 = time.perf_counter()
        for part, ctx in zip(self.parts, ctxs):
            ctx["pass"] = index
            for op in part.ops:
                with span(f"op.{op.__name__}"):
                    try:
                        op(ctx, chk, span)
                    except Exception:  # a crash in hgs is a failed check
                        chk.expect(op.__name__, False,
                                   traceback.format_exc())
        return time.perf_counter() - t0, chk


SINC = Part("sinc", sinc_setup, (sinc_cli, sinc_criterion7_points))
PARSEVAL = Part("parseval", parseval_setup,
                (parseval_criterion3, parseval_criterion5))
RECONSTRUCT = Part("reconstruct", reconstruct_setup,
                   (reconstruct_criterion8, reconstruct_criterion6,
                    reconstruct_sample_cli, reconstruct_dense))
UNFOLD = Part("unfold", unfold_setup,
              (unfold_criterion2, unfold_cross_orthogonality,
               unfold_criterion4, unfold_criterion1, unfold_verify_cli))

WORKLOADS = {w.name: w for w in (
    Workload("loops", (SINC, UNFOLD)),
    Workload("arrays", (PARSEVAL, RECONSTRUCT)),
)}
