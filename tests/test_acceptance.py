"""End-to-end acceptance checks.

Each test prints exactly one ``CRITERION n: PASS`` / ``CRITERION n: FAIL``
line on the real terminal (bypassing capture) in addition to the usual
pytest verdict.
"""
import math
import time

import numpy as np

from cpwl.bounds import (ArchitectureDescriptor, alpha_lower_constructive,
                         alpha_lower_paper, architecture_bound, beta,
                         compositional_upper)
from cpwl.cli import main
from cpwl.constructions import (extremal_sum_network,
                                general_position_partitions, sawtooth,
                                sawtooth_network)
from cpwl.core import (Affine, AffineMap, GroupSort, NetworkSpec, Pointwise,
                       PWLU2D, abs_unit, relu_unit)
from cpwl.geometry import count_report, enumerate_regions, interior_witness_report
from cpwl.oracle import grid_region_count
from cpwl.paths import (PolygonalPath, check_composition_bound,
                        check_subadditivity)
from cpwl.stochastic import (InitSpec, estimate_directional_expansion,
                             estimate_unit_density, mc_knot_density,
                             mc_knot_density_by_depth, mc_table_csv,
                             mc_table_row, relu_crossing_density_oracle,
                             sample_network, unit_density_bound)

# First-run CSVs of the Monte Carlo criteria, reused by the reproducibility
# criterion (which recomputes them from scratch and compares bytes).
_MC_CSV: dict = {}


def _verdict(capsys, n: int, body) -> None:
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"CRITERION {n}: FAIL")
        raise
    with capsys.disabled():
        print(f"CRITERION {n}: PASS")


# ---------------------------------------------------------------------------
# 1. Arrangement-bound sharpness in one and two dimensions
# ---------------------------------------------------------------------------

def test_criterion_01_arrangement_sharpness(capsys):
    def body():
        t0 = time.monotonic()
        assert beta(2, (3, 3)) == 9
        assert beta(1, (3, 3)) == 5
        assert len(enumerate_regions(general_position_partitions(2, (3, 3), seed=0))) == 9
        assert len(enumerate_regions(general_position_partitions(1, (3, 3), seed=0))) == 5
        assert time.monotonic() - t0 < 1.0
    _verdict(capsys, 1, body)


# ---------------------------------------------------------------------------
# 2. Binomial-sum specialization for two-region partitions
# ---------------------------------------------------------------------------

def test_criterion_02_hyperplane_specialization(capsys):
    def body():
        for d in range(1, 9):
            for n in range(1, 9):
                expected = sum(math.comb(n, k) for k in range(min(d, n) + 1))
                assert beta(d, (2,) * n) == expected
        three_lines = general_position_partitions(2, (2, 2, 2), seed=4)
        assert len(enumerate_regions(three_lines)) == 7
    _verdict(capsys, 2, body)


# ---------------------------------------------------------------------------
# 3. Sawtooth region counts and the multiplicative composition law
# ---------------------------------------------------------------------------

def test_criterion_03_sawtooth_laws(capsys):
    def body():
        for p in range(1, 17):
            assert sawtooth(p).region_count == p
        for p in range(2, 7):
            for q in range(2, 7):
                net = NetworkSpec(1, (Pointwise((sawtooth(q),)),
                                      Pointwise((sawtooth(p),))))
                assert len(enumerate_regions(net)) == p * q
    _verdict(capsys, 3, body)


# ---------------------------------------------------------------------------
# 4. Sawtooth networks attain the constructive lower bound exactly
# ---------------------------------------------------------------------------

def _lower_bound_descriptors():
    """>= 30 descriptors with d* <= 2, widths <= 6, at most 4 weight layers."""
    cases = []
    for kappa, shapes in (
        (2, ((1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (1, 6, 1),
             (1, 2, 2, 1), (1, 3, 2, 1), (1, 2, 3, 1), (1, 4, 2, 1),
             (1, 3, 3, 1), (1, 4, 4, 1), (1, 5, 2, 1), (1, 6, 3, 1),
             (1, 2, 2, 2, 1), (1, 3, 3, 3, 1), (1, 2, 4, 2, 1))),
        (3, ((1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (1, 2, 2, 1),
             (1, 3, 2, 1), (1, 2, 2, 2, 1))),
    ):
        cases.extend((dims, kappa) for dims in shapes)
    for kappa, shapes in (
        (2, ((2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 5, 2), (2, 6, 2),
             (2, 2, 2, 2), (2, 3, 3, 2))),
        (3, ((2, 2, 2),)),
    ):
        cases.extend((dims, kappa) for dims in shapes)
    return cases


def test_criterion_04_constructive_lower_bound(capsys):
    def body():
        cases = _lower_bound_descriptors()
        assert len(cases) >= 30
        for dims, kappa in cases:
            kappas = tuple((kappa,) * dims[l + 1] for l in range(len(dims) - 1))
            arch = ArchitectureDescriptor(dims, kappas)
            assert arch.d_star <= 2 and max(dims) <= 6 and arch.depth <= 4
            cells = len(enumerate_regions(sawtooth_network(arch)))
            assert cells == alpha_lower_constructive(arch)
            assert cells <= compositional_upper(arch)
    _verdict(capsys, 4, body)


# ---------------------------------------------------------------------------
# 5. The closed-form/constructive inconsistency is surfaced, not hidden
# ---------------------------------------------------------------------------

def test_criterion_05_bound_audit(capsys):
    def body():
        arch = ArchitectureDescriptor.uniform(1, 4, 1, 3, 2)
        assert alpha_lower_paper(arch) == 512
        assert alpha_lower_constructive(arch) == 125
        assert compositional_upper(arch) == 125
        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "AUDIT: paper-lower 512 > thm-upper 125" in out
    _verdict(capsys, 5, body)


# ---------------------------------------------------------------------------
# 6. Exact counts never exceed the per-family formulas
# ---------------------------------------------------------------------------

def test_criterion_06_upper_bound_dominance(capsys):
    def body():
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        for i in range(100):
            w1 = int(rng.integers(1, 6))
            w2 = int(rng.integers(1, 6))
            dims = (2, w1, w2, 1)
            kappa = int(rng.integers(2, 5))
            rank = int(rng.integers(2, 4))
            init = InitSpec(seed=1000 + i)
            cases = (
                ("relu", 2, ("relu_net", {"dims": dims})),
                ("deepspline", kappa, ("deepspline_net", {"dims": dims, "kappa": kappa})),
                ("maxout", rank, ("maxout_net", {"dims": dims, "rank": rank})),
                ("groupsort", 2, ("groupsort_net", {"dims": dims, "group_size": 2})),
            )
            for family, per_unit, (bound_family, bound_kw) in cases:
                kappas = tuple((per_unit,) * dims[l + 1]
                               for l in range(len(dims) - 1))
                arch = ArchitectureDescriptor(dims, kappas, family=family)
                net = sample_network(arch, init)
                cells = len(enumerate_regions(net))
                assert cells <= architecture_bound(bound_family, **bound_kw).value
        assert time.monotonic() - t0 < 120.0
    _verdict(capsys, 6, body)


# ---------------------------------------------------------------------------
# 7. Special exact counts: full sort, one sorting stage, one 2D lookup unit
# ---------------------------------------------------------------------------

def test_criterion_07_special_counts(capsys):
    def body():
        full_sort = NetworkSpec(3, (GroupSort(3),))
        assert len(enumerate_regions(full_sort)) == 6
        assert architecture_bound("sort", d=3).value == 6

        one_stage = NetworkSpec(4, (GroupSort(2),))
        rep = count_report(enumerate_regions(one_stage))
        assert rep.distinct_piece_count == 4
        gs = architecture_bound("groupsort_activation", d=4, group_size=2)
        assert gs.value == 4
        assert 1 <= gs.extras["envelope_lower"] <= 4 <= gs.extras["envelope_upper"] == 16

        rng = np.random.default_rng(3)
        lookup = NetworkSpec(2, (PWLU2D(4, rng.normal(size=(1, 4, 4)),
                                        (AffineMap(np.eye(2), np.zeros(2)),)),))
        assert len(enumerate_regions(lookup, domain=(-1.0, 1.0))) == 18
        # Off the grid the clamped strips and corners add 4M cells.
        assert len(enumerate_regions(lookup)) == architecture_bound("pwlu_unit", grid_m=4).value == 34
    _verdict(capsys, 7, body)


# ---------------------------------------------------------------------------
# 8. Grid oracle agrees with exact enumeration on random 2D networks
# ---------------------------------------------------------------------------

def test_criterion_08_oracle_agreement(capsys):
    def body():
        t0 = time.monotonic()
        box = (-2.0, 2.0)
        resolution = 512
        cell = (box[1] - box[0]) / resolution
        for i in range(20):
            rng = np.random.default_rng(500 + i)
            width = int(rng.integers(2, 5))
            family = ("abs", "relu")[i % 2]
            kappas = ((2,) * width, (2,))
            arch = ArchitectureDescriptor((2, width, 1), kappas, family=family)
            net = sample_network(arch, InitSpec(seed=200 + i))
            rs = enumerate_regions(net, domain=box)
            exact = count_report(rs).distinct_piece_count
            approx, _ = grid_region_count(net, box, resolution)
            assert approx <= exact
            margins = [interior_witness_report(r.constraints).margin
                       for r in rs.regions]
            if min(margins) > 2 * cell:
                assert approx == exact
        assert time.monotonic() - t0 < 120.0
    _verdict(capsys, 8, body)


# ---------------------------------------------------------------------------
# 9. Deterministic knot-density inequalities on random instances
# ---------------------------------------------------------------------------

def _random_scalar_net(rng, d_in: int, width: int, family: str) -> NetworkSpec:
    unit = abs_unit if family == "abs" else relu_unit
    return NetworkSpec(d_in, (
        Affine(AffineMap(rng.normal(size=(width, d_in)), rng.normal(size=width))),
        Pointwise(tuple(unit() for _ in range(width))),
        Affine(AffineMap(rng.normal(size=(1, width)), rng.normal(size=1))),
    ))


def _random_path(rng, d_in: int) -> PolygonalPath:
    n_vertices = int(rng.integers(2, 4))
    return PolygonalPath(rng.uniform(-1.5, 1.5, size=(n_vertices, d_in)))


def test_criterion_09_deterministic_density_inequalities(capsys):
    def body():
        for i in range(100):
            rng = np.random.default_rng(700 + i)
            d_in = int(rng.integers(1, 4))
            f1 = _random_scalar_net(rng, d_in, int(rng.integers(2, 5)), "abs")
            f2 = _random_scalar_net(rng, d_in, int(rng.integers(2, 5)), "relu")
            assert check_subadditivity(f1, f2, _random_path(rng, d_in)).passed
        for i in range(100):
            rng = np.random.default_rng(900 + i)
            d_in = int(rng.integers(1, 4))
            inner = _random_scalar_net(rng, d_in, int(rng.integers(2, 5)), "relu")
            outer = _random_scalar_net(rng, 1, int(rng.integers(2, 5)), "abs")
            assert check_composition_bound(inner, outer,
                                           _random_path(rng, d_in)).passed
    _verdict(capsys, 9, body)


# ---------------------------------------------------------------------------
# 10. Monte Carlo densities stay under their closed-form bounds
# ---------------------------------------------------------------------------

def _stochastic_bound_rows():
    init = InitSpec(seed=0)
    trials = 100_000

    relu_arch = ArchitectureDescriptor((4, 1), ((2,),), family="relu")
    est_relu = mc_knot_density(relu_arch, init, trials=trials)

    maxout_arch = ArchitectureDescriptor((4, 1), ((3,),), family="maxout")
    est_maxout = mc_knot_density(maxout_arch, init, trials=trials)

    gs_arch = ArchitectureDescriptor((4, 4, 4), ((2,) * 4, (2,) * 4),
                                     family="groupsort")
    gs_bound = unit_density_bound("groupsort", init, d=4, group_size=2)
    est_gs = mc_knot_density(gs_arch, init, trials=trials, bound=gs_bound)

    rows = [mc_table_row("relu", 1, 1, 2, init, est_relu),
            mc_table_row("maxout", 1, 1, 3, init, est_maxout),
            mc_table_row("groupsort", 4, 1, 2, init, est_gs)]
    return mc_table_csv(rows), est_relu, est_maxout, est_gs


def test_criterion_10_stochastic_bounds(capsys):
    def body():
        t0 = time.monotonic()
        csv, est_relu, est_maxout, est_gs = _stochastic_bound_rows()
        _MC_CSV["bounds"] = csv

        assert est_relu.mean <= 1.0 / math.pi + est_relu.three_se
        oracle = relu_crossing_density_oracle(1.0, 1.0, 10.0)
        assert abs(est_relu.mean - oracle) <= est_relu.three_se

        assert est_maxout.mean <= 3.0 * math.sqrt(2.0) / math.pi + est_maxout.three_se
        assert est_gs.mean <= 2.0 * math.sqrt(2.0) / math.pi + est_gs.three_se
        assert time.monotonic() - t0 < 180.0
    _verdict(capsys, 10, body)


# ---------------------------------------------------------------------------
# 11. Knot density grows at most linearly in depth and saturates
# ---------------------------------------------------------------------------

def _depth_saturation_runs():
    init = InitSpec(fan_in_mode="2/fan-in", seed=7)
    rows = []
    runs = {}
    for width in (2, 4, 8):
        arch = ArchitectureDescriptor((2,) + (width,) * 8, ((2,) * width,) * 8,
                                      family="abs")
        lam0 = estimate_unit_density(width, init, trials=2000, family="abs").mean
        d0 = estimate_directional_expansion(arch, init).mean
        ests = mc_knot_density_by_depth(arch, init, trials=2000)
        runs[width] = (lam0, d0, ests)
        for depth, est in enumerate(ests, start=1):
            rows.append(mc_table_row("abs", width, depth, 2, init, est))
    return mc_table_csv(rows), runs


def test_criterion_11_depth_saturation(capsys):
    def body():
        t0 = time.monotonic()
        csv, runs = _depth_saturation_runs()
        _MC_CSV["saturation"] = csv
        for width, (lam0, d0, ests) in runs.items():
            assert len(ests) == 8
            for depth, est in enumerate(ests, start=1):
                linear_bound = max(d0, 1.0) * lam0 * width * depth
                assert est.mean <= linear_bound + est.three_se
            # Density per layer never increases past the first stacking,
            # up to Monte Carlo noise on trial-paired differences.
            values = np.array([est.values for est in ests])
            for depth in range(2, 8):
                diffs = values[depth] / (depth + 1) - values[depth - 1] / depth
                se = diffs.std(ddof=1) / math.sqrt(len(diffs))
                assert diffs.mean() <= 3 * se
        assert time.monotonic() - t0 < 180.0
    _verdict(capsys, 11, body)


# ---------------------------------------------------------------------------
# 12. Re-running every Monte Carlo criterion reproduces its CSV byte-for-byte
# ---------------------------------------------------------------------------

def test_criterion_12_reproducibility(capsys):
    def body():
        first = _MC_CSV.get("bounds") or _stochastic_bound_rows()[0]
        assert _stochastic_bound_rows()[0] == first
        first = _MC_CSV.get("saturation") or _depth_saturation_runs()[0]
        assert _depth_saturation_runs()[0] == first
    _verdict(capsys, 12, body)
