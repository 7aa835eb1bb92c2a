"""Exact integer bounds: arrangement counts, channel products, envelopes."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cpwl import bounds
from cpwl.bounds import (EXACT_ASSIGNMENT_WIDTH, FAMILIES, AlphaReport,
                         ArchitectureDescriptor, BoundReport, _best_assignment,
                         alpha_lower_constructive, alpha_lower_paper,
                         alpha_report, architecture_bound, beta,
                         beta_simplified, beta_uniform, compositional_upper,
                         compositional_upper_factors, corollary_envelope,
                         layer_factors, projection_to_convex_cap)
from cpwl.core import AffineMap, NetworkSpec, PWLU2D, ValidationError
from cpwl.geometry import exact_cell_count, network_arrangement_upper


def beta_bruteforce(d, ns):
    """Independent recomputation: sum of elementary symmetric polynomials of
    (n_i - 1), degree 0..min(d, N), expanded term by term."""
    vals = [n - 1 for n in ns]
    total = 0
    for k in range(min(d, len(vals)) + 1):
        total += sum(math.prod(c) for c in itertools.combinations(vals, k))
    return total


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_anchor_values():
    assert beta(2, (3, 3)) == 9
    assert beta(1, (3, 3)) == 5
    assert beta(0, (7, 9, 11)) == 1
    assert beta(3, ()) == 1


def test_beta_matches_bruteforce_expansion():
    cases = [(1, (2, 2, 2)), (2, (3, 4)), (2, (2, 3, 4)), (3, (5, 2, 2, 3)),
             (4, (2, 2, 2, 2, 2, 2)), (2, (10, 1, 6)), (5, (3, 3, 3, 3))]
    for d, ns in cases:
        assert beta(d, ns) == beta_bruteforce(d, ns)


def test_beta_hyperplane_specialization():
    # Two-piece units cut like single hyperplanes: the count collapses to the
    # classic arrangement formula sum_{k<=min(d,N)} C(N, k).
    for d in range(9):
        for n_units in range(9):
            want = sum(math.comb(n_units, k) for k in range(min(d, n_units) + 1))
            assert beta(d, (2,) * n_units) == want
            assert beta_uniform(d, n_units, 2) == want


def test_beta_equals_product_in_high_dimension():
    for ns in [(3, 3), (2, 5, 4), (7,), (2, 2, 2, 2)]:
        for extra in range(3):
            assert beta(len(ns) + extra, ns) == math.prod(ns)


def test_beta_uniform_agrees_with_beta():
    for d in range(6):
        for n_units in range(6):
            for n in range(1, 5):
                assert beta_uniform(d, n_units, n) == beta(d, (n,) * n_units)


def test_beta_monotone_in_dimension_and_counts():
    ns = (3, 4, 2, 5)
    for d in range(6):
        assert beta(d, ns) <= beta(d + 1, ns)
    assert beta(2, (3, 4)) <= beta(2, (4, 4)) <= beta(2, (4, 5))


def test_beta_ignores_trivial_units():
    assert beta(2, (3, 1, 1, 3)) == beta(2, (3, 3))


def test_beta_simplified_dominates():
    for d in range(1, 5):
        for n_units in range(6):
            for n in range(1, 5):
                loose_prod, loose_pow = beta_simplified(d, n_units, n)
                exact = beta_uniform(d, n_units, n)
                if n_units <= d:
                    assert exact == loose_prod
                assert exact <= loose_pow
                assert exact <= max(loose_prod, loose_pow)


def test_beta_validation():
    with pytest.raises(ValidationError):
        beta(-1, (2,))
    with pytest.raises(ValidationError):
        beta(2, (0,))


def test_projection_to_convex_cap():
    # rho pieces give H = rho(rho-1)/2 candidate boundaries.
    assert projection_to_convex_cap(3, 3) == 8       # H=3 <= d: 2^3
    assert projection_to_convex_cap(3, 5) == 8
    assert projection_to_convex_cap(3, 2) == 7       # 1 + 3 + 3
    assert projection_to_convex_cap(4, 2) == 22      # 1 + 6 + 15
    assert projection_to_convex_cap(1, 4) == 1
    with pytest.raises(ValidationError):
        projection_to_convex_cap(0, 2)


# ---------------------------------------------------------------------------
# Descriptors and the compositional upper bound
# ---------------------------------------------------------------------------

def audit_arch():
    return ArchitectureDescriptor.uniform(1, 4, 1, 3, 2)


def test_descriptor_shapes_and_validation():
    arch = audit_arch()
    assert arch.dims == (1, 4, 4, 4, 1)
    assert arch.kappas == ((2, 2, 2, 2),) * 3 + ((1,),)
    assert arch.depth == 4
    assert arch.d_star == 1
    with pytest.raises(ValidationError):
        ArchitectureDescriptor((2,), ())
    with pytest.raises(ValidationError):
        ArchitectureDescriptor((2, 3), ((2, 2),))  # row shorter than width
    with pytest.raises(ValidationError):
        ArchitectureDescriptor((2, 3), ((2, 2, 0),))


def test_compositional_upper_audit_architecture():
    arch = audit_arch()
    assert compositional_upper_factors(arch) == [5, 5, 5, 1]
    assert compositional_upper(arch) == 125


def test_compositional_upper_uses_min_prefix_dimension():
    # A narrow first layer caps the effective dimension of later factors.
    wide_then_narrow = ArchitectureDescriptor((3, 1, 4), ((2,), (2, 2, 2, 2)))
    assert compositional_upper_factors(wide_then_narrow) == [2, 5]
    no_bottleneck = ArchitectureDescriptor((3, 4, 4), ((2,) * 4, (2,) * 4))
    assert compositional_upper_factors(no_bottleneck) == [15, beta(3, (2,) * 4)]


def test_compositional_upper_single_layer_is_beta():
    arch = ArchitectureDescriptor((2, 3), ((3, 4, 2),))
    assert compositional_upper(arch) == beta(2, (3, 4, 2))


# ---------------------------------------------------------------------------
# Channel-product lower bounds
# ---------------------------------------------------------------------------

def alpha_bruteforce(arch):
    """Independent maximization over all unit-to-channel assignments."""
    m = arch.d_star
    paper_total, constructive_total = 1, 1
    for row in arch.kappas:
        best_p, best_c = 0, 0
        for assign in itertools.product(range(m), repeat=len(row)):
            if set(assign) != set(range(m)):
                continue  # every channel must receive a unit
            sums_k = [0] * m
            sums_km1 = [0] * m
            for unit, ch in enumerate(assign):
                sums_k[ch] += row[unit]
                sums_km1[ch] += row[unit] - 1
            best_p = max(best_p, math.prod(sums_k))
            best_c = max(best_c, math.prod(1 + s for s in sums_km1))
        paper_total *= best_p
        constructive_total *= best_c
    return paper_total, constructive_total


def test_alpha_audit_architecture():
    rep = alpha_report(audit_arch())
    assert rep.paper_value == 512      # (2+2+2+2)^3 on one channel
    assert rep.constructive_value == 125
    assert rep.exact
    assert alpha_lower_paper(audit_arch()) == 512
    assert alpha_lower_constructive(audit_arch()) == 125


def test_alpha_matches_bruteforce_assignment_search():
    cases = [
        ArchitectureDescriptor((2, 3, 2), ((2, 3, 2), (4, 2))),
        ArchitectureDescriptor((2, 4, 4, 2), ((2,) * 4, (3, 2, 2, 5), (2, 2))),
        ArchitectureDescriptor((3, 3, 3), ((2, 2, 2), (4, 3, 2))),
        ArchitectureDescriptor((2, 2), ((7, 7),)),
        ArchitectureDescriptor((4, 5, 4), ((2, 3, 2, 3, 2), (2, 2, 2, 2))),
    ]
    for arch in cases:
        rep = alpha_report(arch)
        want_p, want_c = alpha_bruteforce(arch)
        assert rep.exact
        assert (rep.paper_value, rep.constructive_value) == (want_p, want_c)


def test_alpha_assignments_reproduce_their_scores():
    arch = ArchitectureDescriptor((2, 4, 4, 2), ((2,) * 4, (3, 2, 2, 5), (2, 2)))
    rep = alpha_report(arch)
    m = arch.d_star
    paper_total, constructive_total = 1, 1
    for row, p_assign, c_assign in zip(arch.kappas, rep.paper_assignment.per_layer,
                                       rep.constructive_assignment.per_layer):
        sums = [0] * m
        for unit, ch in enumerate(p_assign):
            sums[ch] += row[unit]
        paper_total *= math.prod(sums)
        sums = [0] * m
        for unit, ch in enumerate(c_assign):
            sums[ch] += row[unit] - 1
        constructive_total *= math.prod(1 + s for s in sums)
    assert paper_total == rep.paper_value
    assert constructive_total == rep.constructive_value


def test_greedy_assignment_beyond_the_exhaustive_width(monkeypatch):
    # Past EXACT_ASSIGNMENT_WIDTH units the balance is greedy: it scores what
    # it reports, fills every channel when asked, and stays at or below the
    # optimum, found here by the exhaustive search with its width raised.
    n = EXACT_ASSIGNMENT_WIDTH + 1
    for weights in ([5] + [1] * (n - 1), [k % 4 + 1 for k in range(n)], [3] * n):
        for base, surjective in ((0, True), (1, True), (1, False)):
            score, assign, exact = _best_assignment(weights, 2, base, surjective)
            assert not exact and len(assign) == n
            sums = [sum(w for w, r in zip(weights, assign) if r == c) for c in range(2)]
            assert score == math.prod(base + s for s in sums)
            if surjective:
                assert set(assign) == {0, 1}
            with monkeypatch.context() as m:
                m.setattr(bounds, "EXACT_ASSIGNMENT_WIDTH", n)
                best, _, exhaustive = _best_assignment(weights, 2, base, surjective)
            assert exhaustive and score <= best
    rep = alpha_report(ArchitectureDescriptor((2, n, 2), ((2,) * n, (2, 2))))
    assert not rep.exact


def test_alpha_paper_can_exceed_compositional_upper():
    # The two bounds answer different questions; on this architecture the
    # additive-channel score overshoots the provable ceiling while the
    # constructive score meets it exactly.
    arch = audit_arch()
    rep = alpha_report(arch)
    upper = compositional_upper(arch)
    assert rep.paper_value > upper
    assert rep.constructive_value == upper


def test_alpha_constructive_never_exceeds_upper_on_small_grid():
    for width in range(1, 5):
        for depth in range(1, 4):
            for kappa in range(2, 5):
                arch = ArchitectureDescriptor.uniform(1, width, 1, depth, kappa)
                rep = alpha_report(arch)
                assert rep.constructive_value <= compositional_upper(arch)


# ---------------------------------------------------------------------------
# Uniform envelope
# ---------------------------------------------------------------------------

def test_corollary_envelope_audit_values():
    env = corollary_envelope(1, 4, 1, 3, 2)
    assert env.lower_paper == 512
    assert env.lower_constructive == 125
    assert env.upper == 512
    assert env.warnings == ()


def test_corollary_envelope_matches_reports_on_uniform_architectures():
    for width in (2, 3, 4):
        for depth in (1, 2, 3):
            for kappa in (2, 3):
                env = corollary_envelope(1, width, 1, depth, kappa)
                arch = ArchitectureDescriptor.uniform(1, width, 1, depth, kappa)
                rep = alpha_report(arch)
                assert env.lower_paper == rep.paper_value
                assert env.lower_constructive == rep.constructive_value


def test_corollary_envelope_validation():
    with pytest.raises(ValidationError):
        corollary_envelope(3, 2, 1, 2, 2)  # width below input dim
    with pytest.raises(ValidationError):
        corollary_envelope(1, 4, 1, 0, 2)
    env = corollary_envelope(2, 3, 4, 1, 2)
    assert env.warnings  # output wider than the hidden layers


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def test_family_anchor_values():
    assert architecture_bound("ridge", d=2, n_units=3).value == 7
    assert architecture_bound("sort", d=3).value == 6
    assert architecture_bound("sort", d=4).value == 24
    assert architecture_bound("max_pooling", d=2, out_dim=2, pool_size=3).value == 9
    assert architecture_bound("ghh", d=2, n_units=2).value == 9
    assert architecture_bound("pwlu_unit", grid_m=4).value == 34
    assert architecture_bound("pwlu_layer", d=1, n_units=1, grid_m=4).value == 34


@pytest.mark.parametrize("grid_m, cells", [(3, 20), (4, 34), (5, 52)])
def test_pwlu_bounds_cover_the_clamped_unit(grid_m, cells):
    # PWLU2D clamps its inputs to the grid, so off the grid one unit adds
    # 4 (M - 1) edge strips and 4 constant corners to its grid triangles.
    unit = NetworkSpec(2, (PWLU2D(grid_m, np.random.default_rng(0).normal(size=(1, grid_m, grid_m)),
                                  (AffineMap(np.eye(2), np.zeros(2)),)),))
    assert exact_cell_count(unit, (-3.0, 3.0))[0] == cells
    assert architecture_bound("pwlu_unit", grid_m=grid_m).value >= cells
    assert architecture_bound("pwlu_layer", d=1, n_units=1, grid_m=grid_m).value >= cells
    assert network_arrangement_upper(unit) == architecture_bound("pwlu_unit", grid_m=grid_m).value


def test_groupsort_activation_envelope():
    rep = architecture_bound("groupsort_activation", d=4, group_size=2)
    assert rep.value == 4
    assert rep.extras["envelope_lower"] == Fraction(1)
    assert rep.extras["envelope_upper"] == 16
    rep = architecture_bound("groupsort_activation", d=6, group_size=3)
    assert rep.value == 36
    assert rep.extras["envelope_lower"] == Fraction(27, 8)
    assert rep.extras["envelope_upper"] == 729
    with pytest.raises(ValidationError):
        architecture_bound("groupsort_activation", d=5, group_size=2)


def test_groupsort_activation_envelope_for_odd_d():
    # For odd d the lower end (g/2)^(d/2) is irrational: a float.
    for d, g, value in ((3, 3, 6), (5, 5, 120), (9, 3, 216)):
        rep = architecture_bound("groupsort_activation", d=d, group_size=g)
        assert rep.value == value
        assert isinstance(rep.extras["envelope_lower"], float)
        assert rep.extras["envelope_lower"] == (g / 2) ** (d / 2)
        assert rep.extras["envelope_upper"] == g ** d
        assert rep.extras["envelope_lower"] <= rep.value <= rep.extras["envelope_upper"]


def test_relu_net_factors():
    rep = architecture_bound("relu_net", dims=(2, 8, 8, 1))
    assert rep.extras["factors"] == [37, 37, 2]
    assert rep.value == 2738


def test_net_families_reduce_to_uniform_beta_products():
    dims = (2, 5, 3, 1)
    for family, kw, kappa in [("relu_net", {}, 2),
                              ("deepspline_net", {"kappa": 4}, 4),
                              ("maxout_net", {"rank": 3}, 3)]:
        rep = architecture_bound(family, dims=dims, **kw)
        want = []
        for l in range(len(dims) - 1):
            d_eff = min(dims[: l + 1])
            want.append(beta_uniform(d_eff, dims[l + 1], kappa))
        assert rep.extras["factors"] == want
        assert rep.value == math.prod(want)


def test_groupsort_net_factors():
    rep = architecture_bound("groupsort_net", dims=(2, 4, 3, 2), group_size=2)
    # Width 3 is not divisible by the group size: that layer passes through.
    assert rep.extras["factors"][1] == 1
    assert rep.extras["factors"][0] == beta_uniform(2, 2, 2)  # 2 sorted pairs
    assert rep.value == math.prod(rep.extras["factors"])


def test_family_errors():
    with pytest.raises(ValidationError):
        architecture_bound("no_such_family", d=2)
    with pytest.raises(ValidationError):
        architecture_bound("deepspline_net", dims=(2, 3, 1), kappa=0)


def test_family_parameters_are_checked():
    good = {"ridge": {"d": 2, "n_units": 3}, "max_pooling": {"d": 2, "out_dim": 2, "pool_size": 3},
            "ghh": {"d": 2, "n_units": 2}, "sort": {"d": 3},
            "groupsort_activation": {"d": 4, "group_size": 2}, "pwlu_unit": {"grid_m": 4},
            "pwlu_layer": {"d": 1, "n_units": 1, "grid_m": 4}, "relu_net": {"dims": (2, 8, 1)},
            "deepspline_net": {"dims": (2, 3, 1), "kappa": 3},
            "maxout_net": {"dims": (2, 3, 1), "rank": 2},
            "groupsort_net": {"dims": (2, 4, 1), "group_size": 2}}
    assert set(good) == set(FAMILIES) and len(FAMILIES) == 11
    for family, params in good.items():
        # numpy integers are integers; the value is a Python int either way
        as_numpy = {k: np.array(v) if k == "dims" else np.int64(v) for k, v in params.items()}
        rep = architecture_bound(family, **as_numpy)
        assert type(rep.value) is int and rep.value == architecture_bound(family, **params).value
        for name in params:
            low = 2 if name == "grid_m" else 1
            missing = {k: v for k, v in params.items() if k != name}
            for bad in (missing, {**params, name + "_x": 1},
                        *({**params, name: v} for v in (True, 2.0, "2", None, low - 1))):
                with pytest.raises(ValidationError):
                    architecture_bound(family, **bad)
    for dims in ((2,), (2, 0, 1), (2, True, 1), (2.0, 3, 1), 5, "21"):
        with pytest.raises(ValidationError):
            architecture_bound("relu_net", dims=dims)


def test_layer_factors_is_the_per_layer_product():
    arch = ArchitectureDescriptor((3, 1, 4), ((2,), (2, 2, 2, 2)))
    assert layer_factors(arch.dims, arch.kappas) == compositional_upper_factors(arch) == [2, 5]
    # An empty row is an affine layer: factor 1.
    assert layer_factors((2, 3, 3), [[], [4, 4, 4]]) == [1, beta(2, (4, 4, 4))]


def test_bound_report_is_plain_data():
    rep = architecture_bound("ridge", d=2, n_units=3)
    assert isinstance(rep, BoundReport)
    assert rep.family == "ridge"
    assert rep.params == {"d": 2, "n_units": 3}
    assert isinstance(alpha_report(audit_arch()), AlphaReport)
