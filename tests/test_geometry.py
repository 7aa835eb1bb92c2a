"""Exact region enumeration: witnesses, subdivision, counting, rendering."""
import numpy as np
import pytest

from cpwl.bounds import beta
from cpwl.constructions import (extremal_sum_network,
                                general_position_partitions, sawtooth)
from cpwl.core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec,
                       Pointwise, PWLU2D, ValidationError, abs_unit,
                       eval_jacobian, relu_unit)
from cpwl.geometry import (DEFAULT_CONFIG, BudgetExceeded, GeometryConfig,
                           HalfSpace, count_report, count_report_to_csv,
                           enumerate_regions, exact_cell_count,
                           interior_witness_report, network_arrangement_upper,
                           piece_fingerprint, region_set_to_json,
                           regions_containing, render_svg)


def mixed_net():
    """Maxout and GroupSort layers in one network."""
    rng = np.random.default_rng(11)
    return NetworkSpec(2, (
        Affine(AffineMap(rng.normal(size=(4, 2)), rng.normal(size=4))),
        Maxout(2, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2))),
        GroupSort(2),
        Affine(AffineMap(rng.normal(size=(1, 4)), rng.normal(size=1))),
    ))


def tent_net():
    """abs -> (1 - t) -> relu: a bump supported on [-1, 1]."""
    return NetworkSpec(1, (Pointwise((abs_unit(),)),
                           Affine(AffineMap(np.array([[-1.0]]), np.array([1.0]))),
                           Pointwise((relu_unit(),))))


# ---------------------------------------------------------------------------
# Witness LP
# ---------------------------------------------------------------------------

def test_witness_interior_point_of_interval():
    w = interior_witness_report([(np.array([1.0]), 0.0), (np.array([-1.0]), 1.0)])
    assert w.status == "interior"
    assert w.point[0] == pytest.approx(0.5, abs=1e-6)
    assert w.margin == pytest.approx(0.5, abs=1e-6)


def test_witness_no_constraints_needs_dim():
    w = interior_witness_report([], dim=2)
    assert w.status == "interior"
    assert w.margin == DEFAULT_CONFIG.r_max
    with pytest.raises(ValidationError):
        interior_witness_report([])


def test_witness_degenerate_slab():
    w = interior_witness_report([(np.array([1.0]), 0.0), (np.array([-1.0]), 0.0)])
    assert w.status == "degenerate"
    assert abs(w.point[0]) <= 1e-6


def test_witness_empty():
    w = interior_witness_report([(np.array([1.0]), -1.0), (np.array([-1.0]), -1.0)])
    assert w.status == "empty"


def test_witness_accepts_halfspace_objects_and_equality():
    hs = [HalfSpace(np.array([1.0, 0.0]), 1.0), HalfSpace(np.array([-1.0, 0.0]), 1.0)]
    w = interior_witness_report(hs, equality=(np.array([0.0, 1.0]), -0.25))
    assert w.status == "interior"
    assert w.point[1] == pytest.approx(0.25, abs=1e-6)


def _linprog_witness(rows, cfg, bounds, equality, dim):
    """Reference: the witness LP of interior_witness_report through the
    public scipy.optimize.linprog on the same model (no-row case excluded)."""
    from scipy.optimize import linprog
    lo, hi = bounds if bounds is not None else (np.full(dim, -cfg.r_max), np.full(dim, cfg.r_max))
    A_ub = [np.concatenate([-a, [np.linalg.norm(a)]]) for a, _ in rows]
    b_ub = [c for _, c in rows]
    A_eq = b_eq = None
    if equality is not None:
        A_eq = [np.concatenate([equality[0], [0.0]])]
        b_eq = [-float(equality[1])]
    res = linprog(np.concatenate([np.zeros(dim), [-1.0]]),
                  A_ub=np.array(A_ub) if A_ub else None, b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=A_eq, b_eq=b_eq, method="highs",
                  bounds=[(float(l), float(h)) for l, h in zip(lo, hi)] + [(None, cfg.r_max)])
    if not res.success:
        return "empty", -np.inf, np.zeros(dim)
    eps = float(res.x[-1])
    status = "interior" if eps > cfg.eps_interior else "degenerate" if eps >= 0.0 else "empty"
    return status, eps, np.array(res.x[:-1])


def _witness_lp_case(i: int):
    """Seeded witness LP number ``i``: (rows, bounds, equality, dim)."""
    rng = np.random.default_rng(7000 + i)
    dim = 2 + i % 3
    m = int(rng.integers(1, 7))
    N = rng.standard_normal((m, dim))
    N[rng.random((m, dim)) < 0.3] = 0.0           # zero entries, dropped from the CSC
    if i % 7 == 0:
        N = np.round(N * 2)                        # integer normals, some all-zero rows
    rows = [(N[k], float(rng.normal(0.5, 1.0))) for k in range(m)]
    kind = (i // 3) % 4
    if kind == 1:                                  # duplicate rows
        rows += [rows[int(k)] for k in rng.integers(0, m, size=2)]
    elif kind >= 2:                                # slab of width gap * ||a||
        a = rng.standard_normal(dim)
        c = float(rng.standard_normal())
        gap = (0.0, 1e-8, -1e-3, -0.5)[int(rng.integers(0, 4))]
        rows += [(a, c), (-a, -c + gap * float(np.linalg.norm(a)))]
    equality = None
    if i % 4 == 3:                                 # count_report form
        equality = rows.pop(0)
        if not rows:
            rows = [(rng.standard_normal(dim), 1.0)]
    bounds = None
    if i % 3:
        bounds = (-rng.uniform(0.5, 3.0, size=dim), rng.uniform(0.5, 3.0, size=dim))
    return rows, bounds, equality, dim


def test_witness_lp_matches_linprog():
    statuses = set()
    for i in range(300):
        rows, bounds, equality, dim = _witness_lp_case(i)
        w = interior_witness_report(rows, DEFAULT_CONFIG, bounds=bounds,
                                    equality=equality, dim=dim)
        status, margin, point = _linprog_witness(rows, DEFAULT_CONFIG, bounds, equality, dim)
        assert (w.status, w.margin) == (status, margin), i
        assert w.point.tobytes() == point.tobytes(), i
        statuses.add((w.status, equality is not None))
    assert statuses == {(s, e) for s in ("interior", "degenerate", "empty") for e in (False, True)}


# ---------------------------------------------------------------------------
# Enumeration anchors (each cross-checked against an independent count)
# ---------------------------------------------------------------------------

def test_three_generic_folds_make_seven_cells():
    rng = np.random.default_rng(3)
    net = NetworkSpec(2, (Affine(AffineMap(rng.normal(size=(3, 2)), rng.normal(size=3))),
                          Pointwise((relu_unit(),) * 3)))
    rep = count_report(enumerate_regions(net), net)
    assert (rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count) == (7, 7, 7)
    assert rep.bounds["arrangement_upper"] == 7


def test_full_sort_in_three_dims():
    rep = count_report(enumerate_regions(NetworkSpec(3, (GroupSort(3),))))
    assert rep.cell_count == 6  # one cell per ordering
    assert rep.distinct_piece_count == 6


def test_pairwise_sort_in_four_dims():
    rep = count_report(enumerate_regions(NetworkSpec(4, (GroupSort(2),))))
    assert rep.cell_count == 4  # 2 independent pair swaps
    assert rep.distinct_piece_count == 4


def test_collapsed_maxout_counts_disagree():
    # max(x, y) followed by the zero map: 2 cells, but a single affine piece
    # forming a single connected component.
    net = NetworkSpec(2, (Maxout(2, np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.zeros((1, 2))),
                          Affine(AffineMap(np.array([[0.0]]), np.array([3.0])))))
    rep = count_report(enumerate_regions(net))
    assert (rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count) == (2, 1, 1)


def test_tent_has_disconnected_equal_pieces():
    # The two flat outer cells share one affine piece but are separated.
    rep = count_report(enumerate_regions(tent_net(), domain=(-5.0, 5.0)))
    assert (rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count) == (4, 3, 4)


def test_count_invariants_hold():
    for net, dom in [(tent_net(), (-5.0, 5.0)), (mixed_net(), (-2.0, 2.0))]:
        rep = count_report(enumerate_regions(net, domain=dom), net)
        assert rep.distinct_piece_count <= rep.connected_piece_count <= rep.cell_count
        assert rep.cell_count <= rep.bounds["arrangement_upper"]


def test_extremal_sum_attains_beta():
    net = extremal_sum_network(2, (3, 3), seed=0)
    rep = count_report(enumerate_regions(net, domain=(-2.0, 2.0)))
    assert rep.cell_count == beta(2, (3, 3)) == 9
    assert rep.distinct_piece_count == 9


def test_general_position_attains_beta():
    net = general_position_partitions(2, (3, 3), seed=0)
    rep = count_report(enumerate_regions(net, domain=(-2.0, 2.0)))
    assert rep.cell_count == 9
    assert rep.distinct_piece_count == 9


def test_sawtooth_unit_exact_count():
    net = NetworkSpec(1, (Pointwise((sawtooth(12),)),))
    rep = count_report(enumerate_regions(net), net)
    assert (rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count) == (12, 12, 12)
    assert rep.bounds["arrangement_upper"] == 12


def test_single_maxout_unit_counts_its_rank():
    net = NetworkSpec(2, (Maxout(3, np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]]),
                                 np.zeros((1, 3))),))
    rep = count_report(enumerate_regions(net), net)
    assert rep.cell_count == 3
    assert rep.bounds["arrangement_upper"] == 3


def test_mixed_net_counts_and_upper():
    net = mixed_net()
    rep = count_report(enumerate_regions(net, domain=(-2.0, 2.0)), net)
    assert (rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count) == (12, 12, 12)
    assert rep.bounds["arrangement_upper"] == 44
    assert count_report(enumerate_regions(net)).cell_count == 22  # full plane


def test_pwlu_counts_in_and_out_of_grid():
    rng = np.random.default_rng(3)
    net = NetworkSpec(2, (PWLU2D(4, rng.normal(size=(1, 4, 4)),
                                 (AffineMap(np.eye(2), np.zeros(2)),)),))
    assert len(enumerate_regions(net, domain=(-1.0, 1.0))) == 18  # 2(M-1)^2 triangles
    # Off-grid the clamped strips and corners add 4(M-1) + 4 affine cells.
    assert len(enumerate_regions(net)) == 34
    assert network_arrangement_upper(net) == 34


# ---------------------------------------------------------------------------
# Region data: witnesses, pieces, containment, coverage
# ---------------------------------------------------------------------------

def test_every_region_piece_matches_network_at_witness():
    net = mixed_net()
    rs = enumerate_regions(net, domain=(-2.0, 2.0))
    for r in rs.regions:
        z, A, b = eval_jacobian(net, r.witness)
        assert np.allclose(r.piece.matrix, A, atol=1e-8)
        assert np.allclose(r.piece.offset, b, atol=1e-8)
        for h in r.constraints:
            assert h.normal @ r.witness + h.offset > 0


def test_regions_cover_the_domain_uniquely():
    net = mixed_net()
    rs = enumerate_regions(net, domain=(-2.0, 2.0))
    rng = np.random.default_rng(0)
    for _ in range(500):
        x = rng.uniform(-2.0, 2.0, size=2)
        hits = regions_containing(rs, x)
        assert len(hits) >= 1
        interior_hits = [i for i in hits
                         if all(h.normal @ x + h.offset > 1e-7
                                for h in rs.regions[i].constraints)]
        assert len(interior_hits) <= 1


def test_regions_containing_on_a_facet():
    rng = np.random.default_rng(3)
    net = NetworkSpec(2, (Affine(AffineMap(rng.normal(size=(3, 2)), rng.normal(size=3))),
                          Pointwise((relu_unit(),) * 3)))
    rs = enumerate_regions(net)
    # A fold point: where the first pre-activation vanishes.
    W, c = net.layers[0].map.matrix, net.layers[0].map.offset
    x = -c[0] / (W[0] @ np.array([1.0, 0.0])) * np.array([1.0, 0.0])
    assert abs(W[0] @ x + c[0]) < 1e-9
    assert len(regions_containing(rs, x)) >= 2


def test_enumeration_is_deterministic():
    net = mixed_net()
    a = region_set_to_json(enumerate_regions(net, domain=(-2.0, 2.0)))
    b = region_set_to_json(enumerate_regions(net, domain=(-2.0, 2.0)))
    assert a == b


def test_budget_is_enforced():
    cfg = GeometryConfig(cell_budget=5)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_regions(mixed_net(), domain=(-2.0, 2.0), cfg=cfg)
    assert exc.value.budget == 5


def test_domain_forms():
    net = tent_net()
    assert len(enumerate_regions(net, domain=(-5.0, 5.0))) == 4
    assert len(enumerate_regions(net, domain=(np.array([-5.0]), np.array([5.0])))) == 4
    assert len(enumerate_regions(net, domain=(0.5, 5.0))) == 2  # clipped window


def test_piece_fingerprint_quantizes():
    p1 = AffineMap(np.array([[1.0, 0.0]]), np.array([0.5]))
    p2 = AffineMap(np.array([[1.0 + 1e-9, 0.0]]), np.array([0.5 - 1e-9]))
    p3 = AffineMap(np.array([[1.1, 0.0]]), np.array([0.5]))
    assert piece_fingerprint(p1) == piece_fingerprint(p2)
    assert piece_fingerprint(p1) != piece_fingerprint(p3)


# ---------------------------------------------------------------------------
# Exact-rational adjudication
# ---------------------------------------------------------------------------

def test_exact_cell_count_matches_float_engine():
    assert exact_cell_count(tent_net(), (-5.0, 5.0)) == (4, 3)
    net = extremal_sum_network(2, (3, 3), seed=0)
    assert exact_cell_count(net, (-2.0, 2.0)) == (9, 9)


def test_exact_cell_count_on_1d_sawtooth():
    net = NetworkSpec(1, (Pointwise((sawtooth(8),)),))
    cells, distinct = exact_cell_count(net, (-0.5, 1.5))
    assert cells == 8  # 7 interior knots
    assert distinct == 8  # slopes alternate but every intercept differs


# ---------------------------------------------------------------------------
# Rendering and CSV
# ---------------------------------------------------------------------------

def test_render_svg_draws_every_cell():
    net = extremal_sum_network(2, (3, 3), seed=0)
    rs = enumerate_regions(net, domain=(-2.0, 2.0))
    svg = render_svg(rs, (-2.0, 2.0))
    assert svg.count("<polygon") == len(rs)
    assert "(9)" in svg
    assert svg.startswith("<svg")


def test_render_requires_two_dims():
    rs = enumerate_regions(tent_net(), domain=(-5.0, 5.0))
    with pytest.raises(ValidationError):
        render_svg(rs, (-5.0, 5.0))


def test_count_report_csv_layout():
    net = NetworkSpec(1, (Pointwise((sawtooth(4),)),))
    rep = count_report(enumerate_regions(net), net)
    csv = count_report_to_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "cell_count,distinct_piece_count,connected_piece_count,arrangement_upper"
    assert lines[1] == "4,4,4,4"


def test_region_set_json_shape():
    net = tent_net()
    doc = region_set_to_json(enumerate_regions(net, domain=(-5.0, 5.0)))
    assert doc["input_dim"] == 1
    assert doc["domain"] == {"lo": [-5.0], "hi": [5.0]}
    assert len(doc["regions"]) == 4
    region = doc["regions"][0]
    assert set(region) == {"constraints", "piece", "witness"}
