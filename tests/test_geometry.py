"""Exact region enumeration: witnesses, subdivision, counting, rendering."""
import hashlib
import itertools
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cpwl import core, geometry
from cpwl.bounds import ArchitectureDescriptor, beta
from cpwl.constructions import (extremal_sum_network,
                                general_position_partitions, sawtooth)
from cpwl.core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec,
                       Pointwise, PWLU2D, ValidationError, abs_unit,
                       eval_jacobian, leaky_relu_unit, relu_unit)
from cpwl.geometry import (DEDUP_TOL, EPS_INTERIOR, FINGERPRINT_TOL, R_MAX,
                           BudgetExceeded, HalfSpace, count_report, count_report_to_csv,
                           enumerate_regions, exact_cell_count,
                           interior_witness_report, network_arrangement_upper,
                           piece_fingerprint, region_set_to_json,
                           regions_containing, render_svg)
from cpwl.serial import dumps_canonical
from cpwl.stochastic import InitSpec, sample_network


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
    assert w.margin == R_MAX
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


def _unit(a, c):
    """(a / ||a||, c / ||a||, 1), or (a, c, 0) when a is zero."""
    n = np.linalg.norm(a)
    return (a / n, c / n, 1.0) if n else (a, c, 0.0)


def _linprog_witness(rows, bounds, equality, dim):
    """Reference: the witness LP of interior_witness_report, on the same unit
    rows, through the public scipy.optimize.linprog (no-row case excluded)."""
    from scipy.optimize import linprog
    lo, hi = bounds if bounds is not None else (np.full(dim, -R_MAX), np.full(dim, R_MAX))
    rows = [_unit(np.asarray(a, dtype=float), float(c)) for a, c in rows]
    A_ub = [np.concatenate([-a, [n]]) for a, _, n in rows]
    b_ub = [c for _, c, _ in rows]
    A_eq = b_eq = None
    if equality is not None:
        a_eq, c_eq, _ = _unit(np.asarray(equality[0], dtype=float), float(equality[1]))
        A_eq = [np.concatenate([a_eq, [0.0]])]
        b_eq = [-c_eq]
    res = linprog(np.concatenate([np.zeros(dim), [-1.0]]),
                  A_ub=np.array(A_ub) if A_ub else None, b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=A_eq, b_eq=b_eq, method="highs",
                  bounds=[(float(l), float(h)) for l, h in zip(lo, hi)] + [(None, R_MAX)])
    if not res.success:
        return "empty", -np.inf, np.zeros(dim)
    eps = float(res.x[-1])
    status = "interior" if eps > EPS_INTERIOR else "degenerate" if eps >= 0.0 else "empty"
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
        w = interior_witness_report(rows, bounds=bounds, equality=equality, dim=dim)
        status, margin, point = _linprog_witness(rows, bounds, equality, dim)
        assert (w.status, w.margin) == (status, margin), i
        assert w.point.tobytes() == point.tobytes(), i
        statuses.add((w.status, equality is not None))
    assert statuses == {(s, e) for s in ("interior", "degenerate", "empty") for e in (False, True)}


def test_interior_witnesses_satisfy_every_unit_row():
    # The cells of the scaled relu nets on the unbounded domain, whose rows
    # have norms down to about 1e-8: on raw rows, 56 of these witness LPs
    # called a cell interior at a point up to 7.1e5 normalised units outside
    # one of its rows (ROADMAP defect 5). On unit rows every interior
    # witness satisfies every row.
    interior = 0
    for seed in range(60):
        for r in enumerate_regions(_scaled_relu_net(seed)).regions:
            w = interior_witness_report(r.rows)
            if w.status == "interior":
                interior += 1
                N, C = np.array([a for a, _ in r.rows]), np.array([c for _, c in r.rows])
                assert ((N @ w.point + C) / core.row_norms(N) >= 0.0).all(), seed
    assert interior > 3000


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


def _digest_corpus():
    """(name, net, domain): 2-input nets of every layer type, each on a box
    and unbounded."""
    rng = np.random.default_rng(2024)
    theta = np.sort(rng.uniform(0.0, 2 * np.pi, 9))

    def affine(m, n):
        return Affine(AffineMap(rng.normal(size=(m, n)), rng.normal(size=m)))

    spline = core.ScalarCPWL((-0.7, 0.1, 0.9), (0.4, -1.1, 0.6, 1.3), 0.2)
    readins = tuple(AffineMap(0.6 * rng.normal(size=(2, 3)), 0.3 * rng.normal(size=2))
                    for _ in range(2))
    nets = {
        "relu": NetworkSpec(2, (affine(5, 2), Pointwise((relu_unit(),) * 5), affine(3, 5),
                                Pointwise((relu_unit(),) * 3), affine(1, 3))),
        "relu-dead": relu_dead_net(31, (2, 5, 3, 1), 2.5),
        "abs": NetworkSpec(2, (affine(4, 2), Pointwise((abs_unit(),) * 4), affine(2, 4),
                               Pointwise((abs_unit(),) * 2))),
        "spline": NetworkSpec(2, (affine(3, 2), Pointwise((spline,) * 3), affine(2, 3),
                                  Pointwise((spline, relu_unit())))),
        "maxout": NetworkSpec(2, (Maxout(3, rng.normal(size=(3, 3, 2)), rng.normal(size=(3, 3))),
                                  Maxout(2, rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2))))),
        # One unit whose constant candidate wins on a 9-gon: cells of 8+ vertices.
        "maxout-9gon": NetworkSpec(2, (Maxout(10, np.vstack([[0.0, 0.0], np.stack(
            [np.cos(theta), np.sin(theta)], 1)])[None], -np.sign(np.arange(10.0))[None]),)),
        "groupsort": NetworkSpec(2, (affine(4, 2), GroupSort(2), affine(4, 4), GroupSort(4),
                                     affine(1, 4))),
        "pwlu2d": NetworkSpec(2, (affine(3, 2), PWLU2D(3, rng.normal(size=(2, 3, 3)), readins),
                                  affine(1, 2))),
    }
    return [(f"{name}-{'box' if domain else 'unbounded'}", net, domain)
            for name, net in nets.items() for domain in ((-2.5, 2.5), None)]


# (cells, distinct, connected), sha256 of the canonical regions.json and,
# on the box, of the SVG. The counts were recorded before the scalar polygon
# kernel; the digests since 2-input witnesses are vertex centroids, which
# moved the witnesses and the region order (``_CORPUS_SET_DIGESTS`` holds
# the rest).
_CORPUS_DIGESTS = {
    "relu-box": ((14, 14, 14),
        "1d16f709023c1805f88b3fc5930ea963bce98cee641ef610f9acee72a199e9f4",
        "3071b58729900e6be68aa47a77dfd8ad1f8a7858a3b638d2d5735de62ec9b68a"),
    "relu-unbounded": ((34, 34, 34),
        "8865f3a7d78c6b2735d95009dc45181f65d38fda22c3d776078f1caf656a2140",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "relu-dead-box": ((10, 1, 1),
        "00b7007b039d44e311377c2b84173444a569c79c6923912ffd13f886aa2a108f",
        "e948b2c1870f3ba1d2b9696802fed6237ff8dcf05e88dc8fa3ad70c8846a479b"),
    "relu-dead-unbounded": ((25, 12, 12),
        "559767b038f72a93b2570113f51a2852bd2bd21c5f24d314aa19169ce0098f5e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "abs-box": ((14, 14, 14),
        "35b023ab1ebcb2f46ea9fab63a8c58ef7cbdef726785bcf0784805443a9eee0c",
        "a06e987a530bb7e1d776bb87323b674eb8ce4d54ed75b1e5739ff23351abe84c"),
    "abs-unbounded": ((15, 15, 15),
        "4b93bf6c6d9816fd62b48e7abba9b8d6a8ace9943bae73c0c6028e22c9ee659c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spline-box": ((74, 74, 74),
        "f97a73fb40107d35fdaed4a37b548204de82bc360e53512424caf2a9f413cfe6",
        "a905d0dd97149f2733380df33deb86a013d7a2e83bf21f731230575f8b81f4f6"),
    "spline-unbounded": ((114, 114, 114),
        "9a7eedeca1123739c0620c3a35b379890b8631b8eb7a567aa24ca3dbd4c0b745",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maxout-box": ((24, 24, 24),
        "7ccbacda723d12f4c332c6eb7114ef31f2d1138d1257cae7f1e28bbc05d1dc8e",
        "905e9de70c4bf343ad04c0e375905302278484d28b231d43de8d44736ed20567"),
    "maxout-unbounded": ((37, 37, 37),
        "29794212e42440c6fc857c8d696ee85264b0f6d89469b8a5900567eae1be44d7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maxout-9gon-box": ((10, 10, 10),
        "4aaadad693a964de6ddb9b2df4cc24545b8b668d38b34a9387371706a0a7a177",
        "9a5ddc8ff25d40d0c2951f7b0d44634cebb3d4bc7788c606cccca7e1bf823bdd"),
    "maxout-9gon-unbounded": ((10, 10, 10),
        "ac287aab35050509788ca05388a93de9ce5d055c3111ee7eda370532bc9333e6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "groupsort-box": ((9, 9, 9),
        "73863f022070dbcdd4c32d0012fd0d75eddf20bf698483a90843819471f1f172",
        "feb33ead2e4a888c34379268fbfc61696a925c3af7c7ca46fa32ef33472dd91f"),
    "groupsort-unbounded": ((33, 33, 33),
        "86e3b794987e4a1d80efaba6338b06182b8dc99775bc65fbd763f052917e4133",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "pwlu2d-box": ((41, 41, 41),
        "5ad56b422eb031f05b684e4d93dd8c49402c42db7a94e757ff8c124fda5be38a",
        "86d18684a0863ce5bd28bb4693b994de7354a93083d142eb967959d8fc2fe54e"),
    "pwlu2d-unbounded": ((79, 78, 79),
        "44074676f04db4beab403c7e87060d51d254373987e73b4a29883c155c0fc5df",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def test_region_products_match_recorded_digests():
    got = {}
    for name, net, domain in _digest_corpus():
        rs = enumerate_regions(net, domain=domain)
        rep = count_report(rs)
        svg = render_svg(rs) if domain else ""
        got[name] = ((rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count),
                     hashlib.sha256(dumps_canonical(region_set_to_json(rs)).encode()).hexdigest(),
                     hashlib.sha256(svg.encode()).hexdigest())
    assert got == _CORPUS_DIGESTS


def _region_set_digests(rs) -> tuple[str, str]:
    """sha256 of the sorted per-region (rows, piece, polygon) bytes and of
    the sorted SVG polygon lines: all that enumeration and rendering make
    apart from the witnesses and the order of the regions."""
    regions = sorted(repr(_bits((r.rows, r.piece.matrix, r.piece.offset, r.geom)))
                     for r in rs.regions)
    polygons = sorted(line for line in render_svg(rs).splitlines() if line.startswith("<polygon"))
    return tuple(hashlib.sha256("\n".join(v).encode()).hexdigest() for v in (regions, polygons))


# _region_set_digests of each corpus entry, box and unbounded; recorded while
# 2-input sides were admitted by area/perimeter and witnessed by their area
# centroid.
_CORPUS_SET_DIGESTS = {
    "relu-box": ("03a9383fe38594518707ea8672483248c19e1595b2125fc63c2aa17eba50fd5a",
        "c15f4457249647ec7a6d5b8725b9b2122b5cab1f5c6a622ba336fec16c6898b4"),
    "relu-unbounded": ("d24395421d180a369907f0f19bb0a816edb55e495ca6b881eb015d95e067b141",
        "53030817351c607c2f68e14a9b63f17c8162a3730a6008007130469c3ebce03e"),
    "relu-dead-box": ("ae48ca9d64558ceaf1c945b0451a702f561754da7c3e850d6b9f4bc3957ff35a",
        "e7cde90a639f770408a35e6ee3e90b77a73a2f3cbd08deab34fc1c375ac4bc3d"),
    "relu-dead-unbounded": ("ebd4c802a11eaf906e349097f71e24a485b624a15c8f1beb41d245a9e8153e78",
        "c3f3fa16ebbe3285c74c774024c21f44cef473c1b3dcb0872c506c237115c0e9"),
    "abs-box": ("be66687a3f376f9dbe0972e811becdb633b788b925111ab2b2dd4885d4232237",
        "9966376a158912d1622cbf1e1f0f335312155fe21c9298fb6b6de37230a63aed"),
    "abs-unbounded": ("dda8026a8389b44733a8b437429c1a9cc95319fe670ab433503d4d7bab8517da",
        "b780d95c587036a2110282956f0ab9b3755f048259677ba0a187f7388946a0a5"),
    "spline-box": ("c18d15d6cb3663e89e0a8d4a21da2c1dc1b8cc0bda2c07b703cdbdb550b0dce1",
        "9a6db51da3fc345ebe6a663a6d7ec16da9e9fc6829113a14206a5a041ca93eb4"),
    "spline-unbounded": ("fba8bf6af45c77909c06b2629c0403a58fa082c49dfd32435f0dfacacfb946a5",
        "d7b350af00ab8d937ced27d2fa3bbac0b0ead33408c4f3614c987ff2a8658cb7"),
    "maxout-box": ("08ab7950543c0379faf4f15111894b1090daafcea87aaee318ea24ea3e05b9da",
        "4726fa9eddf04dac7580934b77929b2add29dc495bdd90deec5802d14082f5bc"),
    "maxout-unbounded": ("377888a998e8c158cb7b1f4fb0119291a0ebfaf1816a178e5d4df52a39d6f805",
        "b2a0fb21a814c9b8978543d26ef1219e4492a30e70ac4a6aa6b6f4f447af59da"),
    "maxout-9gon-box": ("e2cd6eaa1710e15f6f2a7e70142535c376cfa7d81db3f92a49581abfb32ea153",
        "9976f86711fbe1edbe96ab6f708d787dc605673206699a4fa6b1dd11e0aad457"),
    "maxout-9gon-unbounded": ("2d7e271ebcf19a2f78261435f62aa6e4ecc45015772ce1458ac9597f01009976",
        "d9d5df9a1dd15e041fad5a79340c7bb78a3a8e076fb4f4ec6ab9ecced9dc8962"),
    "groupsort-box": ("b88d23c3801ca88877d711963c92b3a12f5e09377864539df2a6784995daeadd",
        "79cc5544a25984980300d0750275017930d29affe7e02e40b767035e5ead018e"),
    "groupsort-unbounded": ("9bd201b3a7f3633c4ea6ede6de6cb35addc35c905da0b85ec252bff82e19dcf9",
        "11211ebac6abe89eb599a123798e86d45e23d1320918fdd3eff1c32d529ab997"),
    "pwlu2d-box": ("06ab4f3cd50c193917a9e1c1954417e6939a3aa73cc1532260336fc26327eb55",
        "28dbbe02cd7772a0fcb9500a14ef8389c8e0832309ad9aeb468b3134020f81e6"),
    "pwlu2d-unbounded": ("2d943e7beabbffe97b553719fa2b829d3b9e1e0e795267ce241b8a237cae94b7",
        "fe6f34f541c94a6bd18df0d6de18b3ec0a8a974b68503ff8aea2caffec1d060c"),
}


def test_region_sets_match_recorded_digests():
    # Each region's rows, piece and polygon, and each SVG polygon, as sets:
    # what a change of the witnesses, and with them of the region order,
    # leaves as it is.
    got = {name: _region_set_digests(enumerate_regions(net, domain=domain))
           for name, net, domain in _digest_corpus()}
    assert got == _CORPUS_SET_DIGESTS


def _vertex_digest_corpus():
    """(name, net, domain): 3- and 4-input abs, leaky, spline, maxout and
    group-sort nets and a 3-input dead-half relu net, each on a box and
    unbounded."""
    rng = np.random.default_rng(2026)

    def affine(m, n):
        return Affine(AffineMap(rng.normal(size=(m, n)), rng.normal(size=m)))

    spline = core.ScalarCPWL((-0.6, 0.3), (0.5, -1.2, 0.8), 0.1)
    out = []
    for d in (3, 4):
        nets = {
            "abs": NetworkSpec(d, (affine(5, d), Pointwise((abs_unit(),) * 5), affine(3, 5),
                                   Pointwise((abs_unit(),) * 3), affine(1, 3))),
            "leaky": NetworkSpec(d, (affine(4, d), Pointwise((leaky_relu_unit(0.1),) * 4),
                                     affine(1, 4))),
            "spline": NetworkSpec(d, (affine(3, d), Pointwise((spline,) * 3), affine(1, 3))),
            "maxout": NetworkSpec(d, (Maxout(3, rng.normal(size=(3, 3, d)), rng.normal(size=(3, 3))),
                                      Maxout(2, rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2))),
                                      affine(1, 2))),
            "groupsort": NetworkSpec(d, (affine(4, d), GroupSort(2), affine(3, 4), GroupSort(3),
                                         affine(1, 3))),
        }
        if d == 3:  # cells of one piece, whose facets count_report clips
            nets["relu-dead"] = relu_dead_net(int(rng.integers(1000)), (d, 4, 3, 1), 2.5)
        out += [(f"{name}-{d}-{'box' if domain else 'unbounded'}", net, domain)
                for name, net in nets.items() for domain in ((-2.5, 2.5), None)]
    return out


# (cells, distinct, connected) and sha256 of the canonical regions.json;
# recorded before the vertex split ran on Python floats.
_VERTEX_DIGESTS = {
    "abs-3-box": ((54, 54, 54),
        "335b441158373d78b61ded9f397d0722c7a83c876e1a329ff50b5548b0dbb170"),
    "abs-3-unbounded": ((126, 126, 126),
        "7409c6d7cda494d8866113d429a6b5807b5c7115b89db8571a719159a6ca442f"),
    "leaky-3-box": ((15, 15, 15),
        "9851fcc13fd5e5bc37c6d07508600a2d32d4ee5314812720ce61193dcf22ff7b"),
    "leaky-3-unbounded": ((15, 15, 15),
        "24fa21c1274cca8c03a83c86f9107f4b3e12fd085643f63d863d5decaa6a5b69"),
    "spline-3-box": ((27, 27, 27),
        "a03f60048f596fd0a29099d95a6e353308a9099a7bef766980fa0be2375105a4"),
    "spline-3-unbounded": ((27, 27, 27),
        "1adcd97ced6ec40b7e3fb2c38225f9fe951d1cec9458c06070c618661cf8279a"),
    "maxout-3-box": ((46, 46, 46),
        "d216f6aa0457558e1e93dcbdcc9f197acfa9e30fa98d736ec02e252ea022a5bf"),
    "maxout-3-unbounded": ((58, 58, 58),
        "0cbd45ab4b206787121c40cbdadd1ab83100d034bd1d5834f9280a52f630a747"),
    "groupsort-3-box": ((24, 24, 24),
        "f187745405be319798e8ea689e754e1b0250c7046cc23dcca7d568b16425bbf4"),
    "groupsort-3-unbounded": ((24, 24, 24),
        "3f12faf5a7d221363ade52443464a03d7fadcc316ff12597b01af8f8782a6a92"),
    "relu-dead-3-box": ((55, 35, 36),
        "bea9b83a0e726f51af78e7e605bd4cb6f994fbd14bf244b6e5d3b1006a28155a"),
    "relu-dead-3-unbounded": ((71, 42, 42),
        "d344bbbe29d3709a14a6662663dd05c680666f39c300689c227da5f425e29464"),
    "abs-4-box": ((67, 67, 67),
        "8b1a0a0dd6c62d21263d8e424e84436fbd8b3dddbfafeb2b394ee5f5bb06dfe4"),
    "abs-4-unbounded": ((71, 71, 71),
        "f1d02f35d66a6df712c2b5c5bf2ab671ba2d471fff1e5b6a5051d7e2232fb1c6"),
    "leaky-4-box": ((12, 12, 12),
        "fee4cd2df66da3d7b23c5338c820b57e9f91b44b3689d2caf40d1795bc66ade3"),
    "leaky-4-unbounded": ((16, 16, 16),
        "15057c8ffb4359d556ed4868370281ca135f0491ed73e34fa2e2f8f29724f88c"),
    "spline-4-box": ((27, 27, 27),
        "a51084c231299176ffd878ee13f5f0b416db30f9216cc5c9b04ebff4b76847e2"),
    "spline-4-unbounded": ((27, 27, 27),
        "b4a6af5725b393081d56bcf797abab240c19fd644336f2d1202ad8d28c8e833a"),
    "maxout-4-box": ((78, 78, 78),
        "5d1f2b2d85aab7ab8a5de620157f65c1b030fa5af708a21126c5225d92ce4107"),
    "maxout-4-unbounded": ((92, 92, 92),
        "82da18e60ceaea5b520516b3d7641d5c158cbd0adf14febd5d08c2f13d5ebaad"),
    "groupsort-4-box": ((24, 24, 24),
        "8ab63a149989ec7936f39739a0d0e3c7ef82f52d7223b09c1758ec25a5a3da24"),
    "groupsort-4-unbounded": ((24, 24, 24),
        "ded414ea03d613f62ea2f6194baaabb215e1eb1044ed4392b532b5010b6dff07"),
}


def test_vertex_region_products_match_recorded_digests():
    got = {}
    for name, net, domain in _vertex_digest_corpus():
        rs = enumerate_regions(net, domain=domain)
        rep = count_report(rs)
        got[name] = ((rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count),
                     hashlib.sha256(dumps_canonical(region_set_to_json(rs)).encode()).hexdigest())
    assert got == _VERTEX_DIGESTS


def _reference_key(a, c, tol, signed=False):
    """The one-row key as a per-row loop."""
    v = np.concatenate([a, [c]]) / np.linalg.norm(a)
    for x in v[:-1]:
        if abs(x) > tol:
            if x < 0 and not signed:
                v = -v
            break
    return tuple(np.round(v, max(0, int(round(-np.log10(tol))))))


def test_layer_keys_match_per_row_keys():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        N = rng.normal(size=(400, d)) * 10.0 ** rng.uniform(-6, 6, (400, 1))
        if d > 1:  # first entries at or below tol: the sign comes from the next
            N[::7, 0] = 0.0
            N[::11, 0] = 1e-10 * N[::11, -1]
        C = rng.normal(size=400) * 10.0 ** rng.uniform(-6, 6, 400)
        for signed in (False, True):
            keys = geometry._hyperplane_keys(N, C, signed)
            assert keys == [_reference_key(a, c, DEDUP_TOL, signed) for a, c in zip(N, C)]


# ---------------------------------------------------------------------------
# Facet adjacency of same-piece cells
# ---------------------------------------------------------------------------

def _box_rows(rs):
    """The domain box as rows (a, c), a.x + c >= 0."""
    if rs.domain is None:
        return []
    (lo, hi), e = rs.domain, np.eye(rs.input_dim)
    return [row for j in range(rs.input_dim)
            for row in ((e[j], -float(lo[j])), (-e[j], float(hi[j])))]


def _exhaustive_adjacent(p, q, rs):
    """Reference: try every constraint hyperplane of ``p`` as an equality
    against the other rows of both cells and the domain, by witness LP. A
    bounded domain also bounds the LP's variables, as its rows do: on the
    R_max box HiGHS' absolute tolerances can misjudge a facet whose inscribed
    radius is within about 1e-7 of eps_interior."""
    combined = [(h.normal, h.offset) for h in p.constraints + q.constraints]
    combined += _box_rows(rs)
    keys = [_reference_key(a, c, DEDUP_TOL) for a, c in combined]
    tried = set()
    for h, key in zip(p.constraints, keys):
        if key in tried:
            continue
        tried.add(key)
        rest = [row for row, k in zip(combined, keys) if k != key]
        w = geometry.interior_witness_report(rest, bounds=rs.domain,
                                             equality=(h.normal, h.offset), dim=rs.input_dim)
        if w.status == "interior":
            return True
    return False


def _lp_counts(rs):
    """(cells, distinct, connected) with the LP reference as facet adjacency;
    for cells that keep no vertices."""
    groups = {}
    for r in rs.regions:
        groups.setdefault(piece_fingerprint(r.piece), []).append(r)
    connected = 0
    for g in groups.values():
        comp = list(range(len(g)))
        for i, j in itertools.combinations(range(len(g)), 2):
            if comp[i] != comp[j] and _exhaustive_adjacent(g[i], g[j], rs):
                comp = [comp[i] if c == comp[j] else c for c in comp]
        connected += len(set(comp))
    return len(rs), len(groups), connected


def _adjacent(p, q, rs):
    """count_report's facet adjacency of the pair: one component or two."""
    box = R_MAX if rs.domain is None else float(np.abs(rs.domain).max())
    return geometry._components([p, q], rs.input_dim, box) == 1


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
    # The geometric adjacency agrees with the LP reference on every pair of
    # same-piece cells, and count_report solves no LP.
    cases = [(relu_dead_net(s, (2, 3, 1), 3.0), (-3.0, 3.0)) for s in range(4)]
    cases += [(relu_dead_net(4, (2, 4, 1), 10.0), (-10.0, 10.0)),
              (relu_dead_net(5, (2, 3, 1), 3.0), None),
              (relu_dead_net(6, (2, 3, 1), 3.0, maxout=True), (-3.0, 3.0)),
              (relu_dead_net(7, (1, 4, 1), 3.0), (-3.0, 3.0)),
              (relu_dead_net(8, (3, 3, 1), 3.0), (-3.0, 3.0))]
    # 1-input maxout ties, cut once from each candidate's side: the two
    # copies of a cut point may differ in the last bit.
    cases += [(_integer_net("maxout", 1, s), domain) for s in (0, 11, 24)
              for domain in ((-3.0, 3.0), None)]
    seen = set()
    for net, domain in cases:
        rs = enumerate_regions(net, domain=domain)
        count_report(rs, net)
        assert lp_calls[0] == 0
        groups = {}
        for r in rs.regions:
            groups.setdefault(piece_fingerprint(r.piece), []).append(r)
        pairs = [(p, q) for g in groups.values() for i, p in enumerate(g) for q in g[i + 1:]]
        assert pairs
        for p, q in pairs:
            expected = _exhaustive_adjacent(p, q, rs)
            assert _adjacent(p, q, rs) == expected
            seen.add((net.input_dim, expected))
        lp_calls[0] = 0
    assert seen == {(d, adj) for d in (1, 2, 3) for adj in (False, True)}


def test_two_separating_hyperplanes_need_no_lp(lp_calls):
    # relu on both inputs: four quadrant cells; opposite quadrants meet only
    # at the origin, neighbouring ones along an axis.
    net = NetworkSpec(2, (Pointwise((relu_unit(), relu_unit())),))
    rs = enumerate_regions(net, domain=(-1.0, 1.0))
    quadrant = {tuple(np.sign(r.witness)): r for r in rs.regions}
    for far, adjacent in (((-1.0, -1.0), False), ((1.0, -1.0), True)):
        p, q = quadrant[1.0, 1.0], quadrant[far]
        assert _adjacent(p, q, rs) == _exhaustive_adjacent(p, q, rs) == adjacent
    lp_calls[0] = 0
    assert count_report(rs).connected_piece_count == 4
    assert lp_calls[0] == 0


def test_shared_piece_nets_count_as_the_lp_path():
    # Seed-1 relu nets on the box ±3 whose cells share pieces, as behind an
    # output relu: (cells, distinct, connected) as the witness-LP adjacency
    # gave them. In (2,16,16,1) all 379 cells share one piece.
    for dims, counts in (((2, 8, 8, 1), (93, 30, 31)), ((2, 16, 16, 1), (379, 1, 1)),
                         ((3, 8, 8, 1), (647, 465, 465))):
        arch = ArchitectureDescriptor(dims, tuple((2,) * w for w in dims[1:]), "relu")
        rep = count_report(enumerate_regions(sample_network(arch, InitSpec(), 1), (-3.0, 3.0)))
        assert (rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count) == counts


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


def test_coordinate_planes_cut_the_cube_through_lp_splits(lp_calls):
    # Thresholds inside [-1, 1]^3: each relu's plane splits every cell it
    # crosses, 2 * 2 * 2 cells with distinct pieces. The vertices decide
    # every split (two witness LPs per split would make 14), so no LP runs.
    net = NetworkSpec(3, (Affine(AffineMap(np.eye(3), np.array([0.2, -0.3, 0.1]))),
                          Pointwise((relu_unit(),) * 3)))
    rs = enumerate_regions(net, domain=(-1.0, 1.0))
    assert lp_calls[0] == 0
    rep = count_report(rs, net)
    assert (rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count) == (8, 8, 8)
    signs = {tuple(np.sign(r.witness + [0.2, -0.3, 0.1]).tolist()) for r in rs.regions}
    assert len(signs) == 8


def test_plane_missing_the_ball_needs_no_lp(lp_calls):
    # The plane x1 = 2 misses the box's inscribed ball (centre 0, radius 1);
    # box corners lie 2 beyond it and 6 before it, so the vertices split the
    # box with no LP, and each side's vertex centroid is its witness.
    net = NetworkSpec(3, (Affine(AffineMap(np.array([[1.0, 0.0, 0.0]]), np.array([-2.0]))),
                          Pointwise((relu_unit(),))))
    rs = enumerate_regions(net, domain=(np.array([-4.0, -1.0, -1.0]), np.array([4.0, 1.0, 1.0])))
    assert len(rs) == 2
    assert lp_calls[0] == 0
    assert sorted(r.witness.tolist() for r in rs.regions) == [[-1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]


def test_enumeration_solves_no_lp_in_three_or_more_inputs(lp_calls):
    # Every 3+-input split is decided by the cell's vertices, on
    # ill-conditioned and degenerate nets too: enumeration never calls the
    # witness LP.
    for k, net in enumerate(_lp_parity_nets() + _degenerate_nets()):
        for domain in ((-2.0, 2.0), None):
            enumerate_regions(net, domain=domain)
            assert lp_calls[0] == 0, (k, domain)


def _two_lp_split(self, cell, a, c):
    """Reference split: one witness LP per side, both always solved; the
    split happens iff both sides are interior (``cell.geom`` is the box)."""
    pos_w, neg_w = (geometry.interior_witness_report(cell.constraints + [(s * a, s * c)],
                                                     bounds=cell.geom)
                    for s in (1.0, -1.0))
    if pos_w.status != "interior" or neg_w.status != "interior":
        return None
    return (cell.geom, neg_w.point), (cell.geom, pos_w.point)


class _TwoLPBackend(geometry._FloatBackend):
    """Reference backend for 3+ inputs: a cell is its constraint list inside
    the domain box, split by ``_two_lp_split``."""

    split = _two_lp_split

    def root(self, lo, hi):
        return (lo, hi), (lo + hi) / 2.0


_VERTEX_BACKEND = geometry._VertexBackend


def _vertex_and_two_lp(monkeypatch, net, domain):
    """(counts, cell keys) of ``net`` by the vertex backend, then by the
    two-LP reference."""
    rs = enumerate_regions(net, domain=domain)
    rep = count_report(rs)
    out = [((rep.cell_count, rep.distinct_piece_count, rep.connected_piece_count),
            _cell_keys(rs))]
    monkeypatch.setattr(geometry, "_VertexBackend", _TwoLPBackend)
    rs = enumerate_regions(net, domain=domain)
    monkeypatch.setattr(geometry, "_VertexBackend", _VERTEX_BACKEND)
    out.append((_lp_counts(rs), _cell_keys(rs)))
    return out


def _lp_parity_nets():
    """3- and 4-input nets of every layer type, integer-weight nets with
    parallel and concurrent planes, a plane 1e-8 inside a face of the box
    ±2 (its thin side is degenerate) and a net with first-layer rows scaled
    by 1e-8 to 1e-6 (cell rows of norm down to about 6e-8, where the witness
    LP's objective overstates the rows' slack)."""
    rng = np.random.default_rng(31)

    def affine(m, n):
        return Affine(AffineMap(rng.normal(size=(m, n)), rng.normal(size=m)))

    def spline():
        return core.ScalarCPWL(tuple(np.sort(rng.normal(size=2))), tuple(rng.normal(size=3)),
                               float(rng.normal()))

    readins = tuple(AffineMap(0.6 * rng.normal(size=(2, 3)), 0.2 * rng.normal(size=2))
                    for _ in range(2))
    nets = [
        NetworkSpec(3, (affine(4, 3), Pointwise((relu_unit(),) * 4), affine(3, 4),
                        Pointwise((relu_unit(),) * 3), affine(1, 3))),
        NetworkSpec(3, (affine(4, 3), Pointwise((abs_unit(),) * 4), affine(1, 4))),
        NetworkSpec(3, (affine(3, 3), Pointwise(tuple(spline() for _ in range(3))),
                        affine(1, 3))),
        NetworkSpec(4, (affine(4, 4), Pointwise((relu_unit(),) * 4), affine(1, 4))),
        NetworkSpec(3, (Maxout(2, rng.normal(size=(3, 2, 3)), rng.normal(size=(3, 2))),
                        affine(1, 3))),
        NetworkSpec(4, (Maxout(3, rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3))),
                        affine(1, 2))),
        NetworkSpec(3, (affine(4, 3), GroupSort(2), affine(4, 4), GroupSort(2),
                        affine(1, 4))),
        NetworkSpec(3, (affine(3, 3), PWLU2D(3, rng.normal(size=(2, 3, 3)), readins),
                        affine(1, 2))),
    ]
    # Parallel planes (x1 = 0, 1/2, 1) and planes through the x3 axis.
    W = np.array([[1, 0, 0], [2, 0, 0], [1, 0, 0], [1, 1, 0], [1, -1, 0], [0, 1, 0],
                  [0, 1, 1], [0, 2, 2]], dtype=float)
    o = np.array([0, -1, -1, 0, 0, 0, 0, 1], dtype=float)
    nets += [NetworkSpec(3, (Affine(AffineMap(W, o)), Pointwise((relu_unit(),) * 8),
                             Affine(AffineMap(np.array([[1, -1, 1, 0, 2, 0, -1, 1]], float),
                                              np.zeros(1))),
                             Pointwise((abs_unit(),)))),
             NetworkSpec(3, (Affine(AffineMap(np.array([[1.0, 0.0, 0.0]]), np.array([-2.0 + 1e-8]))),
                             Pointwise((relu_unit(),))))]
    return nets + [_scaled_relu_net(25)]


def _scaled_relu_net(seed: int):
    """A relu (3, 5, 3) net whose first-layer rows are, by half, scaled by
    1e-8 to 1e-6, with second-layer offsets near 1e-7."""
    rng = np.random.default_rng(seed)
    W, b = rng.standard_normal((5, 3)), rng.standard_normal(5)
    scale = np.where(rng.random(5) < 0.5, 10.0 ** rng.uniform(-8, -6, 5), 1.0)
    return NetworkSpec(3, (Affine(AffineMap(W * scale[:, None], b * scale)),
                           Pointwise((relu_unit(),) * 5),
                           Affine(AffineMap(rng.standard_normal((3, 5)),
                                            1e-7 * rng.standard_normal(3))),
                           Pointwise((relu_unit(),) * 3)))


def _cell_keys(rs):
    """Every cell as the set of its signed constraint keys."""
    return Counter(frozenset(_reference_key(h.normal, h.offset, DEDUP_TOL,
                                            signed=True) for h in r.constraints)
                   for r in rs.regions)


def test_vertex_splits_decide_as_two_witness_lps(monkeypatch):
    # Admitting a side by a vertex more than 2 eps_interior beyond the cut
    # decides as the witness LP does: the same counts and cells as the two-LP
    # split on every net, box and unbounded, but one. On the unbounded
    # domain the scaled net's cell rows fall to a norm of about 6e-8, where
    # the witness LP's absolute tolerances decide: the vertices give 73
    # cells, as in exact arithmetic (test_vertex_split_counts_as_exact_arithmetic),
    # the LP 76 and an LP on unit rows 69 (ROADMAP defect 5).
    nets = _lp_parity_nets()
    for k, net in enumerate(nets):
        for domain in ((-2.0, 2.0), None):
            if k == len(nets) - 1 and domain is None:
                continue
            (got, got_keys), (ref, ref_keys) = _vertex_and_two_lp(monkeypatch, net, domain)
            assert got == ref, (k, domain)
            assert got_keys == ref_keys, (k, domain)


def test_scaled_net_counts_as_unscaled_on_a_scaled_box():
    # The scaled net of _lp_parity_nets behind x -> x / 1e3 on the box
    # ±2e3 has the cells of the net itself on ±2: every cell is the image
    # of one, and the vertices' rounding bound scales with the cell.
    net = _lp_parity_nets()[-1]
    scaled = NetworkSpec(3, (Affine(AffineMap(np.eye(3) / 1e3, np.zeros(3))),) + net.layers)
    counts = [len(enumerate_regions(n, domain=(-h, h))) for n, h in ((net, 2.0), (scaled, 2e3))]
    assert counts == [27, 27]


def _rational_vertex_count(net):
    """Reference: the vertex split of an affine and relu net on the R_max box
    in exact rational arithmetic, with no rounding bound: a side is a cell
    iff a vertex lies more than 2 eps_interior beyond the cut (compared
    squared), and each cell's piece is taken at its vertex centroid."""
    d, r, F = net.input_dim, Fraction(R_MAX), Fraction
    deep = 4 * F(EPS_INTERIOR) ** 2
    corners = list(itertools.product((0, 1), repeat=d))
    V = np.array([[r if bit else -r for bit in corner] for corner in corners], dtype=object)
    act = [sum(1 << (2 * j + bit) for j, bit in enumerate(corner)) for corner in corners]
    cells = [(V, act, 0, np.eye(d, dtype=int).astype(object), np.zeros(d, dtype=object))]
    for layer in net.layers:
        if isinstance(layer, Affine):
            M = np.array([[F(x) for x in row] for row in layer.map.matrix.tolist()], dtype=object)
            o = np.array([F(x) for x in layer.map.offset.tolist()], dtype=object)
            cells = [(V, act, n, M.dot(A), M.dot(b) + o) for V, act, n, A, b in cells]
            continue
        assert all(u == relu_unit() for u in layer.units)
        out = []
        for V, act, n, A, b in cells:
            parts = [(V, act, n)]
            for a, c in zip(A, b):
                new = []
                for P, bits, k in parts:
                    dist = P.dot(a) + c
                    if any(a) and min(dist) < 0 < max(dist) and \
                            min(min(dist) ** 2, max(dist) ** 2) > deep * a.dot(a):
                        new += [(W, w, k + 1) for W, w in
                                geometry._clip_vertices(P, bits, dist, 1 << (2 * d + k))]
                    else:
                        new.append((P, bits, k))
                parts = new
            for P, bits, k in parts:
                on = (A.dot(P.sum(axis=0) / len(P)) + b > 0).astype(int)
                out.append((P, bits, k, A * on[:, None], b * on))
        cells = out
    return len(cells)


def test_vertex_split_counts_as_exact_arithmetic():
    # Scaled relu nets on the unbounded domain, where real vertex depths
    # come within 2^-44 of the R_max box's scale: the float vertex split
    # snaps only rounding and keeps the cells of the same rule computed in
    # rational arithmetic (71, 77 and 75 with a 2^-40 rounding bound).
    for net, cells in ((_scaled_relu_net(25), 73), (_scaled_relu_net(11), 84),
                       (_scaled_relu_net(17), 76)):
        assert len(enumerate_regions(net)) == _rational_vertex_count(net) == cells


def _degenerate_nets():
    """3- and 4-input nets whose planes meet the cells' vertices: integer
    planes concurrent through the origin and through box corners of ±2,
    a plane through corners of the unbounded domain's R_max box, and an
    integer-weight 4-input maxout net, and planes 1.5, 0.6 and 0.4
    eps_interior inside a face of the box ±2, which the witness LP finds
    interior, degenerate and degenerate, and the vertices all too thin."""
    W = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1], [1, 1, 1],
                  [1, 1, 1], [1, -1, 1], [1, 1, 1]], dtype=float)
    o = np.array([0, 0, 0, 0, 0, 0, -2, -2, -R_MAX])
    eps = EPS_INTERIOR
    rng = np.random.default_rng(7)
    return [NetworkSpec(3, (Affine(AffineMap(W, o)), Pointwise((relu_unit(),) * 9),
                            Affine(AffineMap(rng.integers(-2, 3, (2, 9)).astype(float),
                                             np.array([1.0, 0.0]))),
                            Pointwise((abs_unit(),) * 2))),
            NetworkSpec(4, (Maxout(3, rng.integers(-1, 2, (3, 3, 4)).astype(float),
                                   rng.integers(-2, 3, (3, 3)).astype(float)),
                            Affine(AffineMap(rng.integers(-2, 3, (1, 3)).astype(float),
                                             np.zeros(1))))),
            NetworkSpec(3, (Affine(AffineMap(np.array([[1.0, 0.0, 0.0]] * 3 + [[0.0, 1.0, 1.0]]),
                                             np.append(-2.0 + eps * np.array([1.5, 0.6, 0.4]),
                                                       0.5))),
                            Pointwise((relu_unit(),) * 4),
                            Affine(AffineMap(np.array([[1.0, 2.0, 3.0, 1.0]]), np.zeros(1)))))]


def _brute_vertices(N, C):
    """Every point where d linearly independent rows of N x + C >= 0 are
    tight and every row holds (within 1e-9), rounded to 9 decimals."""
    d = N.shape[1]
    S = np.array(list(itertools.combinations(range(len(N)), d)))
    S = S[np.abs(np.linalg.det(N[S])) > 1e-9]
    X = np.linalg.solve(N[S], -C[S][..., None])[..., 0]
    return {tuple(x) for x in np.round(X[(X @ N.T + C >= -1e-9).all(axis=1)], 9) + 0.0}


def test_cut_cells_list_exactly_their_vertices():
    # Integer planes through box corners and each other's vertices, and
    # planes concurrent at a point off the binary grid: every cell lists
    # each of its vertices once, with exactly the rows tight there, and its
    # witness is their centroid, strictly inside every row.
    cells_seen = 0
    for d, planes, seeds, kind in ((3, 8, 10, "int"), (4, 6, 4, "int"), (3, 7, 5, "concurrent")):
        backend = geometry._VertexBackend()
        box = [row for j in range(d) for row in ((np.eye(d)[j], 2.0), (-np.eye(d)[j], 2.0))]
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            geom, w = backend.root(np.full(d, -2.0), np.full(d, 2.0))
            cells = [geometry._Cell([], w, geom)]
            for _ in range(planes):
                a = rng.integers(-2 if kind == "int" else -3, 3, d).astype(float)
                c = float(rng.integers(-2, 3)) if kind == "int" else -a @ [0.3, -0.7, 1 / 3]
                if not a.any():
                    continue
                new = []
                for cell in cells:
                    res = backend.split(cell, a, c)
                    new += [cell] if res is None else [
                        geometry._Cell(cell.constraints + [(-a, -c)], *res[0][::-1]),
                        geometry._Cell(cell.constraints + [(a, c)], *res[1][::-1])]
                cells = new
            for cell in cells:
                V, act = cell.geom
                N, C = geometry._stack_rows(box + cell.constraints, d)
                points = {tuple(v) for v in np.round(V, 9) + 0.0}
                assert len(points) == len(V) and points == _brute_vertices(N, C)
                tight = np.abs(V @ N.T + C) <= 1e-9
                assert [sum(1 << k for k in np.flatnonzero(t)) for t in tight] == act
                assert np.array_equal(cell.witness, V.mean(axis=0))
                assert (N @ cell.witness + C > 0).all()
            cells_seen += len(cells)
    assert cells_seen > 800


def test_degenerate_vertices_split_as_two_witness_lps(monkeypatch):
    # Vertices with more than d active rows: every cell and count as by the
    # two-LP split, on the box and unbounded, but one. The planes 1.5, 0.6
    # and 0.4 eps_interior inside a face of the box ±2 leave slabs that no
    # ball of radius eps_interior fits in, box face included, so no vertex
    # lies 2 eps_interior beyond them and the plane x2 + x3 = -0.5 alone
    # splits the box: 2 cells. The witness LP bounds only its point by the
    # box, not the margin, and finds the 1.5 eps_interior slab interior: 4.
    clip, most_active = geometry._clip_vertices, [0]

    def recording(V, act, *args):
        most_active[0] = max(most_active[0], max(w.bit_count() for w in act) - V.shape[1])
        return clip(V, act, *args)
    monkeypatch.setattr(geometry, "_clip_vertices", recording)
    for k, net in enumerate(_degenerate_nets()):
        for domain in ((-2.0, 2.0), None):
            (got, got_keys), (ref, ref_keys) = _vertex_and_two_lp(monkeypatch, net, domain)
            if k == 2 and domain is not None:
                assert (got[0], ref[0]) == (2, 4)
                continue
            assert got == ref, (k, domain)
            assert got_keys == ref_keys, (k, domain)
            assert got[0] >= 4, (k, domain)
    assert most_active[0] >= 2


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


def test_regions_containing_matches_row_loop():
    rs = enumerate_regions(mixed_net(), domain=(-2.0, 2.0))
    rng = np.random.default_rng(4)
    # Random points, and witnesses moved onto one of their cell's rows.
    points = list(rng.uniform(-2.5, 2.5, (200, 2)))
    for r in rs.regions[:30]:
        a, c = r.rows[-1]
        points.append(r.witness - (a @ r.witness + c) / (a @ a) * a)
    for x in points:
        ref = [i for i, r in enumerate(rs.regions)
               if all(h.normal @ x + h.offset >= -1e-9 * max(1.0, float(np.linalg.norm(h.normal)))
                      for h in r.constraints)]
        assert regions_containing(rs, x) == ref


def test_enumeration_is_deterministic():
    net = mixed_net()
    a = region_set_to_json(enumerate_regions(net, domain=(-2.0, 2.0)))
    b = region_set_to_json(enumerate_regions(net, domain=(-2.0, 2.0)))
    assert a == b


def test_tolerances_are_named_constants():
    assert (R_MAX, EPS_INTERIOR, DEDUP_TOL, geometry.ZERO_NORMAL_TOL, FINGERPRINT_TOL,
            geometry.CELL_BUDGET) == (1e6, 1e-7, 1e-9, 1e-12, 1e-6, 10 ** 6)
    # Exact mode's backend: a zero normal is exactly zero, and no row is a
    # repeat of another.
    exact = geometry._ExactBackend()
    assert exact.zero_normal_tol == 0 and list(exact.keys(np.ones((3, 2)), np.ones(3))) == [0, 1, 2]
    for backend in (geometry._PolygonBackend(), geometry._VertexBackend()):
        assert backend.zero_normal_tol == geometry.ZERO_NORMAL_TOL
        assert len(set(backend.keys(np.ones((3, 2)), np.ones(3)))) == 1


def test_budget_is_enforced():
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_regions(mixed_net(), domain=(-2.0, 2.0), cell_budget=5)
    assert exc.value.budget == 5
    # The error names the layer being split, by its index in the net and its
    # type, for a maxout layer's parts and for a split by switching rows.
    assert exc.value.layer == (1, "maxout") and "in layer 1 (maxout)" in str(exc.value)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_regions(mixed_net(), domain=(-2.0, 2.0), cell_budget=6)
    assert (exc.value.count, exc.value.budget) == (7, 6)
    assert exc.value.layer == (2, "groupsort") and "in layer 2 (groupsort)" in str(exc.value)


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


def _reference_fingerprint(piece, tol):
    """The per-piece fingerprint loop that count_report ran before the
    batched pass."""
    flat = np.concatenate([piece.matrix.ravel(), piece.offset.ravel()])
    q = tol * max(1.0, float(np.abs(flat).max()))
    return tuple(np.round(flat / q).astype(np.int64).tolist())


def test_batched_fingerprints_match_per_piece_loop():
    rng = np.random.default_rng(12)
    for scale in 10.0 ** np.arange(-6, 7):
        for m, d in ((1, 2), (3, 3), (2, 4)):
            M, B = scale * rng.normal(size=(60, m, d)), scale * rng.normal(size=(60, m))
            M[:10] = 0.0  # constant pieces, some equal
            B[5:10] = B[:5]
            M[10:20], B[10:20] = 3.0 * M[20:30], 3.0 * B[20:30]  # scalar multiples
            M[30:35] *= 1.0 + 1e-9 * rng.normal(size=(5, m, d))
            pieces = [AffineMap(a, b) for a, b in zip(M, B)]
            tol = FINGERPRINT_TOL
            expected = [_reference_fingerprint(p, tol) for p in pieces]
            assert geometry._piece_fingerprints(M, B) == expected
            assert [piece_fingerprint(p) for p in pieces] == expected
    net = relu_dead_net(3, (3, 3, 1), 3.0)
    rs = enumerate_regions(net, domain=(-3.0, 3.0))
    fps = [_reference_fingerprint(r.piece, FINGERPRINT_TOL) for r in rs.regions]
    assert count_report(rs).distinct_piece_count == len(set(fps)) < len(rs)


# ---------------------------------------------------------------------------
# Splitting work: crossing filter, shared tie splits, one-sided clips
# ---------------------------------------------------------------------------

def _layer_type_nets(d: int, seed: int) -> list:
    """Seeded nets on ``d`` inputs of every layer type: pointwise (relu, abs
    and a spline), maxout of ranks 2 and 3, group-sort, PWLU2D, maxout with
    a repeated candidate and a dominated one, and relus whose planes leave
    slabs and a corner 2.2e-7 to 1e-6 thin inside the box ±2."""
    rng = np.random.default_rng(seed)

    def affine(m, n):
        return Affine(AffineMap(rng.normal(size=(m, n)), rng.normal(size=m)))

    spline = core.ScalarCPWL(tuple(np.sort(rng.normal(size=2))), tuple(rng.normal(size=3)),
                             float(rng.normal()))
    W, o = rng.normal(size=(2, 3, d)), rng.normal(size=(2, 3))
    W[0, 1], o[0, 1] = W[0, 0], o[0, 0]  # identical candidates
    W[1, 2], o[1, 2] = W[1, 0], o[1, 0] - 1.0  # dominated everywhere
    readins = tuple(AffineMap(0.5 * rng.normal(size=(2, 3)), 0.2 * rng.normal(size=2))
                    for _ in range(2))
    return [
        NetworkSpec(d, (affine(3, d), Pointwise((relu_unit(), abs_unit(), spline)),
                        affine(3, 3), Pointwise((relu_unit(),) * 3), affine(1, 3))),
        NetworkSpec(d, (Maxout(2, rng.normal(size=(3, 2, d)), rng.normal(size=(3, 2))),
                        Maxout(2, rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2))))),
        NetworkSpec(d, (Maxout(3, rng.normal(size=(2, 3, d)), rng.normal(size=(2, 3))),
                        affine(1, 2))),
        NetworkSpec(d, (affine(4, d), GroupSort(2), affine(3, 4), GroupSort(3))),
        NetworkSpec(d, (affine(3, d), PWLU2D(3, rng.normal(size=(2, 3, 3)), readins),
                        affine(1, 2))),
        NetworkSpec(d, (Maxout(3, W, o), affine(1, 2))),
        NetworkSpec(d, (Affine(AffineMap(np.vstack([np.eye(d)[0], np.ones(d), -np.eye(d)[-1]]),
                                         np.array([5e-7 - 2.0, 1e-6 - 2.0 * d, 2.2e-7 - 2.0]))),
                        Pointwise((relu_unit(),) * 3), affine(1, 3))),
    ]


def _bits(x):
    """``x`` (arrays, floats and nestings of them) as exact, hashable data;
    object arrays (of Fractions) by their entries."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tolist() if x.dtype == object else x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    return x.hex() if isinstance(x, float) else x


def _region_bits(rs) -> list:
    return [_bits((r.rows, r.piece.matrix, r.piece.offset, r.witness, r.geom))
            for r in rs.regions]


def test_crossing_filter_changes_no_bit(monkeypatch):
    # Enumeration with the crossing filter, and with every row tried on
    # every part: the same cells, rows, witnesses, pieces and geometry, bit
    # for bit, in 1-3 inputs, on a box, on a box of 1e9 where rounding
    # exceeds split's margin, and unbounded.
    def run():
        return [_region_bits(enumerate_regions(net, domain))
                for d in (1, 2, 3) for seed in range(3) for net in _layer_type_nets(d, seed)
                for domain in ((-2.0, 2.0), (-1e9, 1e9), None)]

    splits, split = [0], geometry._PolygonBackend.split

    def counted(self, *args):
        splits[0] += 1
        return split(self, *args)
    monkeypatch.setattr(geometry._PolygonBackend, "split", counted)
    filtered, filtered_splits = run(), splits[0]
    monkeypatch.setattr(geometry._PolygonBackend, "crossing", geometry._FloatBackend.crossing)
    splits[0] = 0
    assert run() == filtered
    assert filtered_splits < splits[0]  # the filter passed over some rows


def _polygon_cells(seed: int, cuts: int) -> list:
    """Cells of the box ±2 cut by ``cuts`` random lines."""
    rng, backend = np.random.default_rng(seed), geometry._PolygonBackend()
    cells = [geometry._Cell([], *backend.root(np.full(2, -2.0), np.full(2, 2.0))[::-1])]
    for _ in range(cuts):
        a, c = rng.normal(size=2), float(rng.normal())
        new = []
        for cell in cells:
            res = backend.split(cell, a, c)
            new += [cell] if res is None else [geometry._Cell([], w, g) for g, w in res]
        cells = new
    return cells


def test_shared_tie_split_is_two_one_sided_clips(monkeypatch):
    # One split along the tie of candidates i and j gives both cuts as the
    # two _clip_positive calls do, bit for bit, the cell itself and None
    # included; and maxout subdivision with and without the sharing makes
    # the same parts, for ranks 2 and 3 with identical and dominated
    # candidates.
    backend, seen = geometry._PolygonBackend(), Counter()
    for seed in range(30):
        rng = np.random.default_rng(seed)
        for p in _polygon_cells(seed, 3):
            for rank in (2, 3):
                R, s = rng.normal(size=(2, rank, 2)), rng.normal(size=(2, rank))
                R[0, 1], s[0, 1] = R[0, 0], s[0, 0]
                R[1, -1], s[1, -1] = R[1, 0], s[1, 0] - 0.5
                if seed % 3 == 0:  # a tie through a vertex of the cell
                    s[1, 1] = s[1, 0] + (R[1, 0] - R[1, 1]) @ p.geom[0]
                for Ru, su in zip(R, s.tolist()):
                    for i, j in itertools.permutations(range(rank), 2):
                        row, other = (Ru[j] - Ru[i], su[j] - su[i]), (Ru[i] - Ru[j], su[i] - su[j])
                        got = geometry._clip_tie(backend, p, row, other)
                        ref = (geometry._clip_positive(backend, p, *row),
                               geometry._clip_positive(backend, p, *other))
                        for g, r in zip(got, ref):
                            seen["none" if r is None else "whole" if r is p else "cut"] += 1
                            assert (g is None, g is p) == (r is None, r is p)
                            if r is not None:
                                assert _bits((g.constraints, g.witness, g.geom)) == \
                                    _bits((r.constraints, r.witness, r.geom))
                shared = geometry._maxout_parts(backend, p, R, s.tolist())
                monkeypatch.setattr(geometry._PolygonBackend, "shares_ties", False)
                alone = geometry._maxout_parts(backend, p, R, s.tolist())
                monkeypatch.undo()
                assert [_bits((q.constraints, q.witness, q.geom)) for q in shared] == \
                    [_bits((q.constraints, q.witness, q.geom)) for q in alone]
    assert min(seen.values()) > 100, seen


def test_one_sided_vertex_clip_is_the_positive_side():
    # split_positive builds only the side a.x + c > 0: the second side of
    # split, bit for bit, and None where split gives None.
    backend, sides = geometry._VertexBackend(), 0
    for d in (3, 4):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            geom, w = backend.root(np.full(d, -2.0), np.full(d, 2.0))
            cells = [geometry._Cell([], w, geom)]
            for k in range(6):
                a = rng.integers(-2, 3, d).astype(float) if k % 2 else rng.normal(size=d)
                c = float(rng.integers(-2, 3))
                if not a.any():
                    continue
                new = []
                for cell in cells:
                    res, pos = backend.split(cell, a, c), backend.split_positive(cell, a, c)
                    assert (res is None) == (pos is None)
                    if res is None:
                        new.append(cell)
                        continue
                    assert _bits(pos) == _bits(res[1])
                    sides += 1
                    new += [geometry._Cell(cell.constraints + [(s * a, s * c)], *side[::-1])
                            for s, side in zip((-1.0, 1.0), res)]
                cells = new
    assert sides > 100


def _array_distances(V, a, c):
    """The float vertex distances and depth as numpy arrays computed them
    before the split read them as Python floats: the reference."""
    norm = float(np.linalg.norm(a))
    dist = (V @ a + c) / norm
    dist[np.abs(dist) <= geometry._VERTEX_ROUNDING * (np.abs(V).max() * np.abs(a).sum()
                                                      + abs(c)) / norm] = 0.0
    return dist, 2.0 * EPS_INTERIOR


def _array_clip_vertices(V, act, dist, bit, keep=(0, 1)):
    """``_clip_vertices`` on numpy arrays, as it was: the reference."""
    d, vals = V.shape[1], dist.tolist()
    sides = ([i for i, v in enumerate(vals) if v < 0], [i for i, v in enumerate(vals) if v > 0])
    on = [i for i, v in enumerate(vals) if v == 0]
    I, J, simple = [], [], [w.bit_count() == d for w in act]
    for i in sides[0]:
        for j in sides[1]:
            z = act[i] & act[j]
            if z.bit_count() >= d - 1 and (simple[i] or simple[j]
                                           or sum(z & w == z for w in act) == 2):
                I.append(i)
                J.append(j)
    t = (dist[I] / (dist[I] - dist[J]))[:, None]
    W = np.vstack([V[I] + t * (V[J] - V[I]), V[on]])
    cut = [act[i] & act[j] | bit for i, j in zip(I, J)] + [act[k] | bit for k in on]
    return [(np.vstack([V[sides[k]], W]), [act[i] for i in sides[k]] + cut) for k in keep]


def _array_split(cell, a, c, keep, exact, nan_at=None):
    """``_VertexBackend.split`` (``_ExactBackend``'s if ``exact``) on the
    reference arrays, with a NaN distance at vertex ``nan_at`` if given."""
    V, act = cell.geom
    dist, depth = (V @ a + c, 0) if exact else _array_distances(V, a, c)
    if nan_at is not None:
        dist[nan_at] = np.nan
    if dist.max() <= depth or dist.min() >= -depth:
        return None
    sides = _array_clip_vertices(V, act, dist, 1 << (2 * V.shape[1] + len(cell.constraints)), keep)
    return tuple(((W, bits), W.mean(axis=0)) for W, bits in sides)


class _NanVertexBackend(geometry._VertexBackend):
    """The float vertex backend with a NaN distance at vertex 0."""

    def _distances(self, V, a, c):
        dist, tol, depth = super()._distances(V, a, c)
        dist[0] = np.nan
        return dist, tol, depth


def test_vertex_split_matches_array_reference():
    # split, split_positive and _clip_vertices against the array versions
    # they replace, bit for bit: seeded 3- and 4-input cells of the boxes ±2
    # and R_MAX, cut by random rows, integer rows (degenerate vertices, on
    # more than d rows), rows through a vertex and a hair off it (snapped
    # vertices), on floats and on Fractions; and with a NaN distance.
    seen = Counter()
    for d, seed, half, exact in itertools.product((3, 4), range(3), (2.0, R_MAX), (False, True)):
        if exact and (half == R_MAX or seed == 2):
            continue
        rng = np.random.default_rng([seed, d, int(half), exact])
        backend = geometry._ExactBackend() if exact else geometry._VertexBackend()
        num = geometry._fractions if exact else np.asarray
        geom, w = backend.root(num(np.full(d, -half)), num(np.full(d, half)))
        cells = [geometry._Cell([], w, geom)]
        for k in range(7):
            a = rng.integers(-2, 3, d).astype(float) if k % 2 or exact else rng.normal(size=d)
            if not a.any():
                continue
            a = geometry._fractions(a) if exact else a
            if k % 3 == 2:  # through a vertex of a cell, or (floats) a hair off it
                V = cells[rng.integers(len(cells))].geom[0]
                c = -(a @ V[rng.integers(len(V))])
                c = c if exact else float(c) + rng.choice([0.0, 1e-13, 1e-6]) * half
            else:
                c = rng.integers(-2, 3) * (Fraction(half) if exact else half) / 2
            new = []
            for cell in cells:
                V, act = cell.geom
                res, pos = backend.split(cell, a, c), backend.split_positive(cell, a, c)
                assert _bits(res) == _bits(_array_split(cell, a, c, (0, 1), exact))
                assert _bits(pos) == _bits(res and res[1])
                assert _bits(backend.split(cell, a, c, (1,))) == \
                    _bits(_array_split(cell, a, c, (1,), exact))
                dist = V @ a + c if exact else _array_distances(V, a, c)[0]
                bit = 1 << (2 * d + len(cell.constraints))
                for keep in ((0, 1), (1,)):
                    assert _bits(geometry._clip_vertices(V, act, dist.tolist(), bit, keep)) \
                        == _bits(_array_clip_vertices(V, act, dist, bit, keep))
                if not exact:
                    seen["snapped"] += bool(((dist == 0) & (V @ a + c != 0)).any())
                if not exact and k % 2:
                    for keep in ((0, 1), (1,)):
                        with warnings.catch_warnings():  # the mean of a side left empty
                            warnings.simplefilter("ignore", RuntimeWarning)
                            nan = _NanVertexBackend().split(cell, a, c, keep)
                            ref = _array_split(cell, a, c, keep, False, nan_at=0)
                        assert _bits(nan) == _bits(ref)
                    seen["nan-split"] += nan is not None and res is None
                    seen["nan-empty-side"] += nan is not None and not len(nan[0][0][0])
                seen["degenerate"] += any(w.bit_count() > d for w in act)
                seen["exact" if exact else "float"] += 1
                if res is None:
                    new.append(cell)
                    continue
                new += [geometry._Cell(cell.constraints + [(s * a, s * c)], *side[::-1])
                        for s, side in zip((-1, 1), res)]
            cells = new
    assert min(seen.values()) > 10, seen


def test_region_pieces_are_read_only_views():
    net = mixed_net()
    rs = enumerate_regions(net, domain=(-2.0, 2.0))
    M, B = rs.pieces
    for k, r in enumerate(rs.regions):
        for x, stack in ((r.piece.matrix, M), (r.piece.offset, B)):
            assert np.shares_memory(x, stack) and np.array_equal(x, stack[k])
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 1.0
    with pytest.raises(ValueError):
        M[0, 0, 0] = 1.0
    # Pieces that do not pair up with the regions are refused.
    short = geometry.RegionSet(rs.input_dim, rs.regions[1:], rs.domain, rs.pieces)
    with pytest.raises(ValueError):
        count_report(short)
    # A piece that overflows is still refused.
    big = NetworkSpec(2, (Affine(AffineMap(np.diag([1e308, 1.0]), np.zeros(2))),
                          Pointwise((relu_unit(),) * 2),
                          Affine(AffineMap(np.array([[10.0, 1.0]]), np.zeros(1)))))
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="non-finite"):
        enumerate_regions(big, domain=(-2.0, 2.0))


@pytest.mark.parametrize("second", ["pointwise", "maxout"])
def test_non_finite_rows_are_refused_at_their_layer(second, monkeypatch):
    # A 3-input net whose first activation layer splits the box and whose
    # second one gets overflowed rows (inf, and NaN from inf * 0): those are
    # refused where they are made, so no split reads a non-finite row (whose
    # NaN distances would leave sides empty, with NaN witnesses).
    rows = []
    split = geometry._VertexBackend.split

    def checked(self, cell, a, c, keep=(0, 1)):
        rows.append(bool(np.isfinite(a).all() and np.isfinite(c)))
        return split(self, cell, a, c, keep)

    monkeypatch.setattr(geometry._VertexBackend, "split", checked)
    big = np.array([[1e200, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
    second = ([Affine(AffineMap(big, np.zeros(3))), Pointwise((abs_unit(),) * 3)]
              if second == "pointwise"
              else [Maxout(2, np.stack([big, -big], axis=1), np.ones((3, 2)))])
    net = NetworkSpec(3, (Affine(AffineMap(big, np.array([0.5, -0.25, 0.0]))),
                          Pointwise((abs_unit(),) * 3), *second,
                          Affine(AffineMap(np.ones((1, 3)), np.zeros(1)))))
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            enumerate_regions(net, domain=(-2.0, 2.0))
    assert rows and all(rows)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("domain", [(-2.0, 2.0), None])
def test_rows_that_overflow_on_the_box_are_refused(d, domain):
    # The first row, (1e308, 1, 0, ...), is finite, but its values at the
    # box's corners are not: in 3 inputs the split read NaN vertices and
    # ended in a numpy ValueError, and in 2 it dropped the cut (2 cells, not
    # the 4 of exact_cell_count). A large row whose values stay finite on the
    # box is cut as ever.
    def net(big):
        M = np.eye(d)
        M[0, 0] = big
        M[0, 1:2] = 1.0
        return NetworkSpec(d, (Affine(AffineMap(M, np.zeros(d))), Pointwise((relu_unit(),) * d),
                               Affine(AffineMap(np.ones((1, d)), np.zeros(1)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            enumerate_regions(net(1e308), domain=domain)
        assert len(enumerate_regions(net(1e150), domain=domain)) == 2 ** d


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("domain", [(-2.0, 2.0), None])
def test_rows_whose_square_overflows_are_cut(d, domain):
    # The first row, (1.4e154, 1, 0, ...), is finite on the box, but its
    # square is not: its norm read inf, so every distance to its cut read 0
    # (the 2-input margin inf) and the cut was dropped, giving 1, 2 and 4
    # cells. Its norm is finite now, and the counts are the rational
    # engine's.
    M = np.eye(d)
    M[0, 0] = 1.4e154
    M[0, 1:2] = 1.0
    net = NetworkSpec(d, (Affine(AffineMap(M, np.zeros(d))), Pointwise((relu_unit(),) * d),
                          Affine(AffineMap(np.ones((1, d)), np.zeros(1)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(enumerate_regions(net, domain)) == exact_cell_count(net, domain)[0] == 2 ** d


@pytest.mark.parametrize("delta", [1e-3, 1e-2])
@pytest.mark.parametrize("unbounded", [False, True])
def test_one_input_cuts_have_no_relative_floor(delta, unbounded):
    # Relu breakpoints at t and t + delta, far from 0: a 1-input side once
    # had to be longer than EPS_INTERIOR * |t| = 0.05, and the cell between
    # them was lost (2 cells). Vertex cells admit it, as the rational engine
    # does.
    t = 5e5
    net = NetworkSpec(1, (Affine(AffineMap(np.ones((2, 1)), np.array([-t, -(t + delta)]))),
                          Pointwise((relu_unit(),) * 2), Affine(AffineMap(np.ones((1, 2)), np.zeros(1)))))
    domain = None if unbounded else (t - 1.0, t + 1.0)
    assert len(enumerate_regions(net, domain)) == exact_cell_count(net, domain)[0] == 3


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


def _integer_net(kind: str, d: int, seed: int) -> NetworkSpec:
    """Two hidden layers of width 3 and an affine read-out, every weight and
    offset an integer in -2..2: relu, abs, rank-2 maxout or group-sort (one
    group of 3) layers."""
    rng = np.random.default_rng([seed, d, ("relu", "abs", "maxout", "groupsort").index(kind)])

    def ints(*shape):
        return rng.integers(-2, 3, size=shape).astype(float)
    layers, n = [], d
    for _ in range(2):
        if kind == "maxout":
            layers.append(Maxout(2, ints(3, 2, n), ints(3, 2)))
        else:
            layers += [Affine(AffineMap(ints(3, n), ints(3))),
                       GroupSort(3) if kind == "groupsort" else
                       Pointwise(((relu_unit if kind == "relu" else abs_unit)(),) * 3)]
        n = 3
    return NetworkSpec(d, tuple(layers) + (Affine(AffineMap(ints(1, 3), ints(1))),))


def test_exact_counts_match_float_engine_on_integer_nets():
    # Integer weights make concurrent and parallel planes and equal pieces,
    # and every float piece is exact: the float cells, and their pieces by
    # exact equality, count as the rational engine's.
    for kind in ("relu", "abs", "maxout", "groupsort"):
        for d in (1, 2, 3):
            for domain in ((-3.0, 3.0), None):
                for seed in range(12):
                    net = _integer_net(kind, d, seed)
                    rs = enumerate_regions(net, domain)
                    pieces = {tuple(r.piece.matrix.ravel().tolist() + r.piece.offset.tolist())
                              for r in rs.regions}
                    assert exact_cell_count(net, domain) == (len(rs), len(pieces)), \
                        (kind, d, domain, seed)


def test_exact_counts_need_no_tolerance(monkeypatch):
    # The nets of ROADMAP defect 2 behind x -> x / s on the box ±3s, where
    # the float engine gives 35 and 15 cells at s = 1e-6; every vertex and
    # piece entry of the rational runs is a Fraction.
    runs, run = [], geometry._subdivide

    def subdivide(*args):
        runs.append(run(*args))
        return runs[-1]
    monkeypatch.setattr(geometry, "_subdivide", subdivide)
    for family, dims, counts in (("relu", (3, 4, 4, 1), (51, 51)), ("abs", (2, 4, 4, 1), (42, 42))):
        arch = ArchitectureDescriptor(dims, tuple((2,) * w for w in dims[1:]), family)
        net = sample_network(arch, InitSpec(), 3)
        d = dims[0]
        for s in (1e-6, 1.0, 1e6):
            scaled = NetworkSpec(d, (Affine(AffineMap(np.eye(d) / s, np.zeros(d))),) + net.layers)
            assert exact_cell_count(scaled, (-3 * s, 3 * s)) == counts, (family, s)
    for cells, A, b in runs:
        values = [v for cell in cells for v in cell.geom[0].ravel()] + list(A.ravel()) + list(b.ravel())
        assert all(type(v) is Fraction for v in values)
    # No tolerance: the side 1e-8 thin that the float engine drops is a cell.
    assert exact_cell_count(_lp_parity_nets()[9], (-2.0, 2.0)) == (2, 2)
    with pytest.raises(ValidationError):
        exact_cell_count(_lp_parity_nets()[7], (-2.0, 2.0))


# ---------------------------------------------------------------------------
# Rendering and CSV
# ---------------------------------------------------------------------------

def test_render_svg_draws_every_cell():
    net = extremal_sum_network(2, (3, 3), seed=0)
    rs = enumerate_regions(net, domain=(-2.0, 2.0))
    svg = render_svg(rs)
    assert svg.count("<polygon") == len(rs)
    assert "(9)" in svg
    assert svg.startswith("<svg")


def _region_polygon(region, box):
    """Reference: the box clipped by each of the region's rows in turn."""
    (x0, y0), (x1, y1) = box[0].tolist(), box[1].tolist()
    verts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    for a, c in region.rows:
        _, verts = geometry._clip(verts, (np.array(verts) @ a + c).tolist())
        if len(verts) < 3:
            return []
    return verts


def test_render_draws_the_kept_polygons():
    # Each region's kept polygon is the box re-clipped by its rows, bit for
    # bit, on a box and on the R_max box of an unbounded domain, and the SVG
    # draws one polygon per region at those points.
    for name, net, domain in _digest_corpus():
        rs = enumerate_regions(net, domain=domain)
        svg = render_svg(rs)
        lo, hi = rs.domain if domain else (np.full(2, -R_MAX), np.full(2, R_MAX))
        scale = 640 / (hi - lo)
        drawn = [line.split('"')[1] for line in svg.splitlines() if line.startswith("<polygon")]
        assert len(drawn) == len(rs) and f"({len(rs)})" in svg, name
        for r, points in zip(rs.regions, drawn):
            ref = _region_polygon(r, (lo, hi))
            assert r.geom.tolist() == [list(v) for v in ref], name
            px = [((x - lo[0]) * scale[0], 640 - (y - lo[1]) * scale[1]) for x, y in ref]
            assert points == " ".join(f"{x:.2f},{y:.2f}" for x, y in px), name
    # A region without the geometry of enumerate_regions is refused, as
    # count_report refuses it.
    bare = geometry.RegionSet(2, [geometry.Region(r.rows, r.piece, r.witness) for r in rs.regions],
                              rs.domain, rs.pieces)
    with pytest.raises(ValidationError):
        render_svg(bare)


def test_render_requires_two_dims():
    rs = enumerate_regions(tent_net(), domain=(-5.0, 5.0))
    with pytest.raises(ValidationError):
        render_svg(rs)


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
