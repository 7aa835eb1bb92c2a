"""Exact region enumeration: witnesses, subdivision, counting, rendering."""
import numpy as np
import pytest

from cpwl import core, geometry
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


def relu_dead_net(seed: int, dims: tuple, half: float, maxout: bool = False):
    """Relu (or rank-2 maxout) net with a relu on its scalar output, shifted
    so that the output is zero on half of the box [-half, half]^d: the dead
    half is a group of cells with one piece."""
    rng = np.random.default_rng(seed)
    layers = []
    for l in range(len(dims) - 1):
        if maxout and l < len(dims) - 2:
            layers.append(Maxout(2, rng.normal(size=(dims[l + 1], 2, dims[l])),
                                 rng.normal(size=(dims[l + 1], 2))))
            continue
        layers.append(Affine(AffineMap(rng.normal(size=(dims[l + 1], dims[l])),
                                       rng.normal(size=dims[l + 1]))))
        if l < len(dims) - 2:
            layers.append(Pointwise(tuple(relu_unit() for _ in range(dims[l + 1]))))
    g = np.linspace(-half, half, 9)
    X = np.stack(np.meshgrid(*([g] * dims[0]), indexing="ij"), -1).reshape(-1, dims[0])
    net = NetworkSpec(dims[0], tuple(layers))
    out = [core.eval(net, x)[0] for x in X]
    last = layers[-1].map
    layers[-1] = Affine(AffineMap(last.matrix, last.offset - np.median(out)))
    return NetworkSpec(dims[0], tuple(layers) + (Pointwise((relu_unit(),)),))


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


def test_polygon_measures_match_roll_formulas():
    rng = np.random.default_rng(5)
    for i in range(200):
        n = 3 + i % 10
        t = np.sort(rng.uniform(0.0, 2 * np.pi, n))
        verts = rng.normal(size=2) + rng.uniform(0.1, 10.0) * np.stack([np.cos(t), np.sin(t)], 1)
        x, y = verts[:, 0], verts[:, 1]
        xr, yr = np.roll(x, -1), np.roll(y, -1)
        area = float(0.5 * abs(np.dot(x, yr) - np.dot(y, xr)))
        per = float(np.sum(np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)))
        cross = x * yr - xr * y
        a = cross.sum() / 2.0
        centroid = np.array([((x + xr) * cross).sum() / (6.0 * a),
                             ((y + yr) * cross).sum() / (6.0 * a)])
        got_area, got_per = geometry._polygon_area_perimeter(verts)
        assert np.array([got_area, got_per]).tobytes() == np.array([area, per]).tobytes()
        assert geometry._polygon_centroid(verts).tobytes() == centroid.tobytes()


# ---------------------------------------------------------------------------
# Facet adjacency of same-piece cells
# ---------------------------------------------------------------------------

def _exhaustive_adjacent(p, q, rs, cfg):
    """Reference: try every constraint hyperplane of ``p`` as an equality
    against the other rows of both cells and the domain."""
    combined = [(h.normal, h.offset) for h in p.constraints + q.constraints]
    combined += geometry._domain_halfspaces(rs)
    keys = [geometry._hyperplane_key(a, c, cfg.dedup_tol) for a, c in combined]
    tried = set()
    for h, key in zip(p.constraints, keys):
        if key in tried:
            continue
        tried.add(key)
        rest = [row for row, k in zip(combined, keys) if k != key]
        w = geometry.interior_witness_report(rest, cfg, equality=(h.normal, h.offset),
                                             dim=rs.input_dim)
        if w.status == "interior":
            return True
    return False


@pytest.fixture
def lp_calls(monkeypatch):
    calls = [0]
    solve = geometry.interior_witness_report

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)
    monkeypatch.setattr(geometry, "interior_witness_report", counted)
    return calls


def test_facet_filter_matches_exhaustive_scan(lp_calls):
    cases = [(relu_dead_net(s, (2, 3, 1), 3.0), (-3.0, 3.0)) for s in range(4)]
    cases += [(relu_dead_net(4, (2, 4, 1), 10.0), (-10.0, 10.0)),
              (relu_dead_net(5, (2, 3, 1), 3.0), None),
              (relu_dead_net(6, (2, 3, 1), 3.0, maxout=True), (-3.0, 3.0)),
              (relu_dead_net(7, (1, 4, 1), 3.0), (-3.0, 3.0)),
              (relu_dead_net(8, (3, 3, 1), 3.0), (-3.0, 3.0))]
    seen = set()
    for net, domain in cases:
        rs = enumerate_regions(net, domain=domain)
        groups = {}
        for r in rs.regions:
            groups.setdefault(piece_fingerprint(r.piece), []).append(r)
        pairs = [(p, q) for g in groups.values() for i, p in enumerate(g) for q in g[i + 1:]]
        assert pairs
        for p, q in pairs:
            lp_calls[0] = 0
            expected = _exhaustive_adjacent(p, q, rs, DEFAULT_CONFIG)
            scan_lps, lp_calls[0] = lp_calls[0], 0
            assert geometry._facet_adjacent(p, q, rs, DEFAULT_CONFIG) == expected
            assert lp_calls[0] <= min(scan_lps, 1)
            seen.add((net.input_dim, expected))
    assert seen == {(d, adj) for d in (1, 2, 3) for adj in (False, True)}


def test_two_separating_hyperplanes_need_no_lp(lp_calls):
    # relu on both inputs: four quadrant cells; opposite quadrants meet only
    # at the origin, neighbouring ones along an axis.
    net = NetworkSpec(2, (Pointwise((relu_unit(), relu_unit())),))
    rs = enumerate_regions(net, domain=(-1.0, 1.0))
    quadrant = {tuple(np.sign(r.witness)): r for r in rs.regions}
    assert not geometry._facet_adjacent(quadrant[1.0, 1.0], quadrant[-1.0, -1.0],
                                        rs, DEFAULT_CONFIG)
    assert lp_calls[0] == 0
    assert geometry._facet_adjacent(quadrant[1.0, 1.0], quadrant[1.0, -1.0], rs, DEFAULT_CONFIG)
    assert lp_calls[0] == 1


# ---------------------------------------------------------------------------
# Region data: witnesses, pieces, containment, coverage
# ---------------------------------------------------------------------------

def _witness_nets():
    """(net, box half-width): one net per layer type on 2 inputs, the mixed
    net, and a 3-input net (LP backend)."""
    rng = np.random.default_rng(21)

    def affine(m, n):
        return Affine(AffineMap(rng.normal(size=(m, n)), rng.normal(size=m)))

    spline = core.ScalarCPWL((-0.5, 0.4), (0.3, -1.2, 0.8), 0.1)
    readins = tuple(AffineMap(0.5 * rng.normal(size=(2, 3)), 0.2 * rng.normal(size=2))
                    for _ in range(2))
    return [
        (NetworkSpec(2, (affine(3, 2), Pointwise((relu_unit(), abs_unit(), spline)),
                         affine(1, 3))), 2.0),
        (NetworkSpec(2, (Maxout(3, rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3))),
                         affine(1, 2))), 2.0),
        (NetworkSpec(2, (affine(4, 2), GroupSort(2), affine(1, 4))), 2.0),
        (NetworkSpec(2, (affine(3, 2), PWLU2D(3, rng.normal(size=(2, 3, 3)), readins),
                         affine(1, 2))), 3.0),
        (mixed_net(), 2.0),
        (NetworkSpec(3, (affine(3, 3), Pointwise((abs_unit(), relu_unit(), spline)),
                         affine(2, 3), GroupSort(2))), 1.5),
    ]


def test_every_region_piece_matches_network_at_witness():
    # Enumeration selects pieces with the array definitions of every layer
    # type; core.layer_piece (through eval_jacobian) is the reference.
    for k, (net, half) in enumerate(_witness_nets()):
        rs = enumerate_regions(net, domain=(-half, half))
        assert len(rs) >= 4, k
        for r in rs.regions:
            z, A, b = eval_jacobian(net, r.witness)
            assert np.allclose(r.piece.matrix, A, atol=1e-8), k
            assert np.allclose(r.piece.offset, b, atol=1e-8), k
            for h in r.constraints:
                assert h.normal @ r.witness + h.offset > 0, k
        if any(isinstance(layer, PWLU2D) for layer in net.layers):
            # Cells both inside and outside the first unit's clamp box.
            layer = net.layers[1]
            uv = [layer.readins[0](net.layers[0].map(r.witness)) for r in rs.regions]
            inside = [bool(np.all(np.abs(p) < 1.0)) for p in uv]
            assert any(inside) and not all(inside)


def test_coordinate_planes_cut_the_cube_through_lp_splits():
    # Thresholds inside [-1, 1]^3: each relu's plane splits every cell it
    # crosses, 2 * 2 * 2 cells with distinct pieces.
    net = NetworkSpec(3, (Affine(AffineMap(np.eye(3), np.array([0.2, -0.3, 0.1]))),
                          Pointwise((relu_unit(),) * 3)))
    rs = enumerate_regions(net, domain=(-1.0, 1.0))
    rep = count_report(rs, net)
    assert (rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count) == (8, 8, 8)
    signs = {tuple(np.sign(r.witness + [0.2, -0.3, 0.1]).tolist()) for r in rs.regions}
    assert len(signs) == 8


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
