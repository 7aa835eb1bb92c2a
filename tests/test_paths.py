"""Knots along polygonal paths: counting, attribution, density inequalities."""
import hashlib

import numpy as np
import pytest

from cpwl import core, paths
from cpwl.bounds import ArchitectureDescriptor
from cpwl.constructions import sawtooth, sawtooth_network
from cpwl.core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec,
                       batch_pieces, PWLU2D,
                       Pointwise, ValidationError, abs_unit, relu_unit)
from cpwl.paths import (PATH_VERTEX, InequalityReport, PolygonalPath,
                        check_composition_bound, check_subadditivity,
                        count_knots, image_length, image_path,
                        segment_image_lengths, segment_knot_counts)
from cpwl.stochastic import InitSpec, default_probe, sample_network
from cpwl.switching import raw_layers


def relu_net():
    return NetworkSpec(1, (Pointwise((relu_unit(),)),))


def saw_net(p):
    return NetworkSpec(1, (Pointwise((sawtooth(p),)),))


def sw6_net():
    return sawtooth_network(ArchitectureDescriptor((1, 2, 1), ((2, 2), (2,))))


# ---------------------------------------------------------------------------
# PolygonalPath basics
# ---------------------------------------------------------------------------

def test_path_geometry():
    path = PolygonalPath(np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 8.0]]))
    assert path.dim == 2
    assert np.allclose(path.segment_lengths, [5.0, 4.0])
    assert path.length == pytest.approx(9.0)
    seg = PolygonalPath.segment([0.0], [2.0])
    assert seg.length == pytest.approx(2.0)


def test_path_validation():
    with pytest.raises(ValidationError):
        PolygonalPath(np.array([[0.0, 0.0]]))  # a single vertex is not a path
    with pytest.raises(ValidationError):
        PolygonalPath(np.array([[0.0], [0.0]]))  # zero-length segment
    with pytest.raises(ValidationError):
        count_knots(relu_net(), PolygonalPath.segment([0.0, 0.0], [1.0, 1.0]))


# ---------------------------------------------------------------------------
# Knot counting
# ---------------------------------------------------------------------------

def test_relu_single_knot():
    rep = count_knots(relu_net(), PolygonalPath.segment([-1.0], [1.0]))
    assert rep.count == 1
    assert rep.knot_params == (1.0,)  # arc-length parameter of the origin
    assert rep.layers == (0,)
    assert rep.at_vertex == (False,)
    assert rep.density == pytest.approx(0.5)


def test_sawtooth_knots_at_grid_points():
    rep = count_knots(saw_net(4), PolygonalPath.segment([0.0], [1.0]))
    assert rep.count == 3
    assert rep.knot_params == pytest.approx((0.25, 0.5, 0.75))


def test_affine_path_has_no_knots():
    net = NetworkSpec(2, (Affine(AffineMap(np.array([[1.0, 1.0]]), np.zeros(1))),))
    path = PolygonalPath(np.array([[-1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    rep = count_knots(net, path)
    # The image stays straight through the bend: no knots anywhere.
    assert rep.count == 0


def test_chained_sawtooth_knot_attribution():
    rep = count_knots(sw6_net(), PolygonalPath.segment([0.0], [1.0]), prefixes=True)
    assert rep.knot_params == pytest.approx((1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6))
    # Inner knots come from the first pointwise stage (layer 1), the rest from
    # the second (layer 3) pulled back through the order-3 chain.
    assert rep.layers == (3, 1, 3, 1, 3)
    assert rep.at_vertex == (False,) * 5
    assert rep.count == 5
    assert rep.density == pytest.approx(5.0)
    assert rep.prefix_counts == (0, 2, 2, 5)
    assert rep.prefix_counts[-1] == rep.count
    some = count_knots(sw6_net(), PolygonalPath.segment([0.0], [1.0]), prefixes=[3, 1])
    assert some.prefix_counts == (5, 2)
    assert some.knot_params == rep.knot_params


def test_vertex_knot_detection():
    net = NetworkSpec(2, (Affine(AffineMap(np.array([[1.0, 0.0]]), np.zeros(1))),
                          Pointwise((abs_unit(),))))
    path = PolygonalPath(np.array([[-1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    rep = count_knots(net, path)
    # |x| falls at slope -1 then stays 0: the bend itself is the only knot.
    assert rep.count == 1
    assert rep.knot_params == (1.0,)
    assert rep.layers == (PATH_VERTEX,)
    assert rep.at_vertex == (True,)


def test_splitting_a_segment_does_not_change_knots():
    net = sw6_net()
    whole = count_knots(net, PolygonalPath.segment([0.0], [1.0]))
    split = count_knots(net, PolygonalPath(np.array([[0.0], [0.3], [1.0]])))
    assert split.count == whole.count
    assert split.knot_params == pytest.approx(whole.knot_params)
    assert not any(split.at_vertex)


def test_reversed_path_mirrors_knots():
    net = sw6_net()
    fwd = count_knots(net, PolygonalPath.segment([0.0], [1.0]))
    rev = count_knots(net, PolygonalPath.segment([1.0], [0.0]))
    assert rev.count == fwd.count
    assert rev.knot_params == pytest.approx(tuple(1.0 - p for p in fwd.knot_params[::-1]))


def test_maxout_and_groupsort_knots():
    net = NetworkSpec(2, (Maxout(2, np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.zeros((1, 2))),))
    rep = count_knots(net, PolygonalPath.segment([-1.0, 1.0], [1.0, -1.0]))
    assert rep.count == 1  # crossing the x=y tie once
    net2 = NetworkSpec(2, (GroupSort(2), Affine(AffineMap(np.array([[1.0, -1.0]]), np.zeros(1)))))
    rep2 = count_knots(net2, PolygonalPath.segment([-1.0, 1.0], [1.0, -1.0]))
    assert rep2.count == 1


def test_random_paths_agree_with_dense_sampling():
    rng = np.random.default_rng(21)
    net = NetworkSpec(2, (
        Affine(AffineMap(rng.normal(size=(4, 2)), rng.normal(size=4))),
        Pointwise(tuple(abs_unit() for _ in range(4))),
        Affine(AffineMap(rng.normal(size=(1, 4)), rng.normal(size=1))),
    ))
    for _ in range(20):
        p0, p1 = rng.uniform(-2, 2, size=(2, 2))
        if np.linalg.norm(p1 - p0) < 1e-3:
            continue
        path = PolygonalPath.segment(p0, p1)
        rep = count_knots(net, path)
        # Independent count: the directional derivative is piecewise constant
        # along the segment; count its value changes on a dense grid.
        direction = (p1 - p0) / np.linalg.norm(p1 - p0)
        ts = np.linspace(0.0, 1.0, 4001)
        _, A, _ = batch_pieces(net, np.array([p0 + t * (p1 - p0) for t in ts]))
        dirslopes = (A @ direction)[:, 0]
        scale = max(np.max(np.abs(dirslopes)), 1e-12)
        sampled = int(np.sum(np.abs(np.diff(dirslopes)) > 1e-7 * scale))
        assert rep.count == sampled


def test_knot_params_are_python_scalars():
    rep = count_knots(sw6_net(), PolygonalPath.segment([0.0], [1.0]))
    assert all(type(p) is float for p in rep.knot_params)
    assert all(type(l) is int for l in rep.layers)
    assert all(type(v) is bool for v in rep.at_vertex)


# ---------------------------------------------------------------------------
# Engine parity: knots, attribution and prefix counts pinned per trial
# ---------------------------------------------------------------------------

def _parity_cases():
    """(name, [(net, path), ...]) with 20 trials per case, drawn from fixed seeds."""
    fan_in = InitSpec(fan_in_mode="2/fan-in")
    plain = InitSpec()

    def sampled(dims, family, init, **kw):
        arch = ArchitectureDescriptor(dims, tuple((2,) * w for w in dims[1:]), family=family)
        out = []
        for t in range(20):
            net = sample_network(arch, init, seed=1000 + t, **kw)
            out.append((net, default_probe(init, dims[0], np.random.default_rng([7, t]))))
        return out

    def pwlu(t):
        rng = np.random.default_rng([11, t])
        readins = tuple(AffineMap(rng.normal(size=(2, 3)), rng.normal(size=2)) for _ in range(2))
        net = NetworkSpec(2, (Affine(AffineMap(rng.normal(size=(3, 2)), rng.normal(size=3))),
                              PWLU2D(4, rng.normal(size=(2, 4, 4)), readins),
                              Affine(AffineMap(rng.normal(size=(1, 2)), np.zeros(1)))))
        return net, PolygonalPath.segment(*rng.uniform(-3, 3, size=(2, 2)))

    def bent(t):
        rng = np.random.default_rng([13, t])
        net = NetworkSpec(2, (Affine(AffineMap(rng.normal(size=(4, 2)), rng.normal(size=4))),
                              Pointwise((abs_unit(),) * 4),
                              Affine(AffineMap(rng.normal(size=(1, 4)), rng.normal(size=1)))))
        return net, PolygonalPath(rng.uniform(-2, 2, size=(3, 2)))

    return [
        ("abs-depth8", sampled((2,) + (4,) * 8, "abs", fan_in)),
        ("deepspline-k3", sampled((2, 4, 4, 4), "deepspline", plain, kappa=3)),
        ("maxout-rank2", sampled((2, 4, 4, 4), "maxout", plain, rank=2)),
        ("maxout-rank3", sampled((3, 4, 2), "maxout", plain, rank=3)),
        ("groupsort", sampled((4, 4, 4), "groupsort", plain)),
        ("pwlu2d", [pwlu(t) for t in range(20)]),
        ("bent-path", [bent(t) for t in range(20)]),
    ]


# Recorded with the per-interval engine this one replaced: per case, the knot
# count of each trial and a digest of every trial's (count, layers,
# at_vertex, prefix_counts).
PINNED_PARITY = {
    "abs-depth8": ([28, 52, 67, 19, 61, 19, 27, 30, 45, 24, 19, 21, 33, 28, 16, 30, 39, 30, 28, 18],
                   "7593bdb48c1f6c80"),
    "deepspline-k3": ([16, 26, 22, 15, 19, 12, 16, 14, 18, 18, 22, 27, 26, 9, 24, 11, 15, 15, 10, 19],
                      "e61368789d8399ba"),
    "maxout-rank2": ([10, 13, 13, 7, 15, 11, 11, 13, 11, 11, 13, 9, 14, 11, 9, 14, 6, 14, 11, 12],
                     "2fe05bc274344121"),
    "maxout-rank3": ([7, 8, 8, 5, 13, 8, 9, 6, 6, 5, 9, 5, 9, 8, 10, 8, 8, 8, 9, 7],
                     "4b2abf482c58cf66"),
    "groupsort": ([1, 2, 2, 1, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2, 1, 1, 1, 2],
                  "c63f9f4fa4bac928"),
    "pwlu2d": ([21, 7, 0, 6, 3, 2, 12, 9, 12, 4, 6, 4, 10, 1, 1, 1, 14, 11, 15, 0],
               "16e772a340c8a6c6"),
    "bent-path": ([6, 4, 3, 4, 3, 4, 2, 8, 3, 1, 2, 5, 1, 4, 1, 3, 5, 5, 5, 4],
                  "34c325cb16886072"),
}


def test_knot_engine_parity_pinned():
    for name, trials in _parity_cases():
        reps = [count_knots(net, path, prefixes=True) for net, path in trials]
        record = [(r.count, r.layers, r.at_vertex, r.prefix_counts) for r in reps]
        counts, digest = PINNED_PARITY[name]
        assert [r.count for r in reps] == counts, name
        assert hashlib.sha256(repr(record).encode()).hexdigest()[:16] == digest, name
        if name == "bent-path":
            assert all(PATH_VERTEX in r.layers and any(r.at_vertex) for r in reps)


# ---------------------------------------------------------------------------
# Batch invariance: a segment's intervals have the same bits in any batch
# ---------------------------------------------------------------------------

def _propagated(nets, starts, ends):
    """Per layer, per segment: the bytes of its intervals and profiles."""
    seg, out = paths._Segments(starts, ends), []
    for _ in paths._propagate(nets, seg):
        out.append([b"".join(a[seg.owner == t].tobytes() for a in (seg.lo, seg.hi, seg.P, seg.Q))
                    for t in range(len(starts))])
    return out, np.bincount(seg.owner)


_INVARIANCE_NETS = {"abs": ((2, 4, 4, 4, 1), {}), "maxout": ((2, 4, 4, 1), {"rank": 3}),
                    "deepspline": ((2, 4, 4, 1), {"kappa": 3})}


@pytest.mark.parametrize("family", sorted(_INVARIANCE_NETS))
@pytest.mark.parametrize("shared", [True, False])
def test_segments_run_alone_or_in_any_batch_alike(family, shared):
    # 32 segments of random ends, under one net or one net each. Alone, as
    # the only segment of a batch, and in batches of 7 and 32 segments whose
    # interval counts differ, each segment gets the same bytes: intervals and
    # profiles after every layer, knot counts after every layer, image length.
    dims, kw = _INVARIANCE_NETS[family]
    arch = ArchitectureDescriptor(dims, tuple((3,) * w for w in dims[1:]), family=family)
    nets = [sample_network(arch, InitSpec(sigma_b=0.7), seed=40 + t, **kw)
            for t in range(1 if shared else 32)]
    nets = nets * 32 if shared else nets
    raw = [raw_layers(net) for net in nets]
    starts, ends = np.random.default_rng([17, shared]).uniform(-3, 3, size=(2, 32, 2))
    after = range(len(raw[0]))
    alone = []
    for t in range(32):
        path = PolygonalPath.segment(starts[t], ends[t])
        layers, _ = _propagated(raw[t:t + 1], starts[t:t + 1], ends[t:t + 1])
        alone.append((list(count_knots(nets[t], path, prefixes=True).prefix_counts),
                      image_length(nets[t], path), [per_seg[0] for per_seg in layers]))
    for size in (1, 7, 32):
        for first in range(0, 32, size):
            ts = slice(first, first + size)
            batch = raw[:1] if shared else raw[ts]
            layers, n_intervals = _propagated(batch, starts[ts], ends[ts])
            if size > 1:
                assert len(set(n_intervals.tolist())) > 1
            counts = segment_knot_counts(batch, starts[ts], ends[ts], after)
            lengths = segment_image_lengths(batch, starts[ts], ends[ts])
            for i, t in enumerate(range(32)[ts]):
                key = (family, shared, size, t)
                assert counts[:, i].tolist() == alone[t][0], key
                assert lengths[i] == alone[t][1], key
                assert [per_seg[i] for per_seg in layers] == alone[t][2], key


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("d_in", [1, 2, 5])
def test_affine_step_is_a_fixed_order_float_sum(shared, d_in):
    # Row i, output j: ((P[i,0] M[j,0] + P[i,1] M[j,1]) + ...) + b[j], in
    # Python floats, with M and b the net of the row's segment.
    rng = np.random.default_rng([23, d_in, shared])
    seg = paths._Segments(np.zeros((6, d_in)), np.ones((6, d_in)))
    seg.owner = np.repeat(np.arange(6), [1, 3, 2, 7, 1, 4])
    scale = 10.0 ** rng.integers(-3, 4, (2, 1, d_in))
    seg.P, seg.Q = rng.standard_normal((2, len(seg.owner), d_in)) * scale
    nets = 1 if shared else 6
    M, b = rng.standard_normal((nets, 3, d_in)), rng.standard_normal((nets, 3))
    P, Q = seg.P.tolist(), seg.Q.tolist()
    paths._affine(seg, 0, M, b)
    for i, t in enumerate(seg.owner.tolist()):
        m, c = M[0 if shared else t].tolist(), b[0 if shared else t].tolist()
        for j in range(3):
            p, q = P[i][0] * m[j][0], Q[i][0] * m[j][0]
            for k in range(1, d_in):
                p, q = p + P[i][k] * m[j][k], q + Q[i][k] * m[j][k]
            assert (seg.P[i, j], seg.Q[i, j]) == (p, q + c[j]), (i, j)


# ---------------------------------------------------------------------------
# Array engine edge cases (a masked division must not warn)
# ---------------------------------------------------------------------------

def _kink(b, left=1.0, right=2.0):
    return core.ScalarCPWL((b,), (left, right), 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("slope, expected", [(-1e-301, 0.4), (1e-301, 0.6)])
def test_midpoint_on_breakpoint_takes_the_side_of_travel(slope, expected):
    # |slope| < 1e-300 gives no crossing, so the midpoint of [0, 2] lands
    # exactly on the breakpoint at 1: a decreasing profile takes the left
    # piece (slope 2), an increasing one the right piece (slope 3). The last
    # layer scales the resulting slope up to where it shows in the length.
    net = NetworkSpec(1, (Affine(AffineMap(np.array([[slope]]), np.array([1.0]))),
                          Pointwise((_kink(1.0, 2.0, 3.0),)),
                          Affine(AffineMap(np.array([[1e300]]), np.zeros(1)))))
    path = PolygonalPath.segment([0.0], [2.0])
    assert count_knots(net, path).count == 0
    assert image_length(net, path) == pytest.approx(expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("offsets, kept", [((0.6e-12, 1.5e-12), (1.5e-12,)),
                                           ((2.0e-12, 2.5e-12), (2.0e-12,)),
                                           ((2.0e-12, 3.5e-12, 4.0e-12), (2.0e-12, 3.5e-12)),
                                           ((2.0e-12, 2.6e-12, 3.2e-12), (2.0e-12, 3.2e-12))])
def test_near_coincident_cuts_merge_in_sorted_order(offsets, kept):
    # Layer 1 cuts at 0.5. In layer 2, unit k crosses at 0.5 + offsets[k],
    # within _CUT_MERGE_REL (times the length 1) of its neighbours. Taken in
    # ascending order, a crossing that close to the previous cut kept is
    # dropped: 0.6e-12 goes (near 0.5) and 1.5e-12 stays; 2.5e-12 goes (near
    # 2.0e-12); 4.0e-12 goes (near 3.5e-12, which stayed); 3.2e-12 stays (near
    # 2.6e-12 only, which went).
    ident = core.identity_unit()
    w = len(offsets) + 1
    net = NetworkSpec(1, (Affine(AffineMap(np.ones((w, 1)), np.zeros(w))),
                          Pointwise((_kink(0.5),) + (ident,) * len(offsets)),
                          Pointwise((ident,) + tuple(_kink(0.5 + d) for d in offsets)),
                          Affine(AffineMap(np.ones((1, w)), np.zeros(1)))))
    rep = count_knots(net, PolygonalPath.segment([0.0], [1.0]), prefixes=True)
    assert rep.knot_params == (0.5,) + tuple(0.5 + d for d in kept)
    assert rep.layers == (1,) + (2,) * len(kept)
    assert rep.prefix_counts == (0, 1, 1 + len(kept), 1 + len(kept))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_constant_preactivation_has_no_root():
    # Unit 0 sees the constant 0, exactly its breakpoint, along the whole path.
    net = NetworkSpec(2, (Affine(AffineMap(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(2))),
                          Pointwise((relu_unit(), relu_unit())),
                          Affine(AffineMap(np.ones((1, 2)), np.zeros(1)))))
    rep = count_knots(net, PolygonalPath.segment([-1.0, 0.0], [1.0, 0.0]))
    assert rep.knot_params == (1.0,)
    assert rep.layers == (1,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("slope, expected", [(1e-301, 0.2), (-1e-301, 0.0)])
def test_maxout_tie_at_midpoint_breaks_by_directional_slope(slope, expected):
    # The two pieces 1 and 1 + slope*x tie at every midpoint in floating
    # point, and |slope| < 1e-300 gives no crossing: the larger directional
    # slope wins the tie, and the first piece when it is not larger.
    net = NetworkSpec(1, (Maxout(2, np.array([[[0.0], [slope]]]), np.ones((1, 2))),
                          Affine(AffineMap(np.array([[1e300]]), np.zeros(1)))))
    path = PolygonalPath.segment([0.0], [2.0])
    assert count_knots(net, path).count == 0
    assert image_length(net, path) == pytest.approx(expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("slope, offset", [(1e-299, 1e10), (1e-290, 1e30), (1e-200, 1e120)])
def test_cut_past_the_largest_float_is_no_cut(slope, offset):
    # The kink's pre-activation slope * s + offset crosses 0 at -offset /
    # slope, beyond the largest float: the quotient overflows to -inf, which
    # lies in no interval, silently.
    net = NetworkSpec(1, (Affine(AffineMap(np.array([[slope]]), np.array([offset]))),
                          Pointwise((_kink(0.0),)),
                          Affine(AffineMap(np.ones((1, 1)), np.zeros(1)))))
    assert count_knots(net, PolygonalPath.segment([0.0], [1.0])).count == 0


# ---------------------------------------------------------------------------
# Image paths
# ---------------------------------------------------------------------------

def test_image_length_scales_with_the_map():
    doubler = NetworkSpec(1, (Affine(AffineMap(np.array([[2.0]]), np.zeros(1))),))
    assert image_length(doubler, PolygonalPath.segment([0.0], [3.0])) == pytest.approx(6.0)


def test_image_length_of_relu_folds():
    # [-1, 1] maps to [0, 1] traversed once after collapsing the left half.
    assert image_length(relu_net(), PolygonalPath.segment([-1.0], [1.0])) == pytest.approx(1.0)
    ip = image_path(relu_net(), PolygonalPath.segment([-1.0], [1.0]))
    assert np.allclose(ip.vertices.ravel(), [0.0, 1.0])


def test_image_length_counts_retraced_arcs():
    # The sawtooth sweeps [0, 1] four times.
    assert image_length(saw_net(4), PolygonalPath.segment([0.0], [1.0])) == pytest.approx(4.0)


def test_image_path_of_constant_map_degenerates():
    zero = NetworkSpec(1, (Affine(AffineMap(np.zeros((1, 1)), np.zeros(1))),))
    assert image_length(zero, PolygonalPath.segment([0.0], [1.0])) == 0.0
    with pytest.raises(ValidationError):
        image_path(zero, PolygonalPath.segment([0.0], [1.0]))


# ---------------------------------------------------------------------------
# Density inequalities
# ---------------------------------------------------------------------------

def shifted_abs_net():
    return NetworkSpec(1, (Affine(AffineMap(np.array([[1.0]]), np.array([-0.25]))),
                           Pointwise((abs_unit(),))))


def test_subadditivity_on_distinct_knots():
    rep = check_subadditivity(relu_net(), shifted_abs_net(),
                              PolygonalPath.segment([-1.0], [1.0]))
    assert rep.passed
    assert rep.detail == {"kt_sum": 2, "kt_stack": 2, "kt1": 1, "kt2": 1}
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0)
    assert str(rep) == "PASS: 1 <= 1"


def test_subadditivity_random_networks():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f1 = NetworkSpec(1, (Affine(AffineMap(rng.normal(size=(3, 1)), rng.normal(size=3))),
                             Pointwise(tuple(abs_unit() for _ in range(3))),
                             Affine(AffineMap(rng.normal(size=(1, 3)), rng.normal(size=1)))))
        f2 = NetworkSpec(1, (Affine(AffineMap(rng.normal(size=(2, 1)), rng.normal(size=2))),
                             Pointwise(tuple(relu_unit() for _ in range(2))),
                             Affine(AffineMap(rng.normal(size=(1, 2)), rng.normal(size=1)))))
        rep = check_subadditivity(f1, f2, PolygonalPath.segment([-2.0], [2.0]))
        assert rep.passed
        assert rep.detail["kt_sum"] <= rep.detail["kt1"] + rep.detail["kt2"]
        assert rep.detail["kt_stack"] <= rep.detail["kt1"] + rep.detail["kt2"]


def test_composition_bound_anchor():
    rep = check_composition_bound(relu_net(), shifted_abs_net(),
                                  PolygonalPath.segment([-1.0], [1.0]))
    assert rep.passed
    assert rep.detail["kt_comp"] == 2
    assert rep.detail["kt1"] == 1
    assert rep.detail["kt2_on_image"] == 1
    assert rep.detail["image_length"] == pytest.approx(1.0)


def test_composition_bound_identity_outer():
    ident = NetworkSpec(1, (Affine(AffineMap(np.eye(1), np.zeros(1))),))
    rep = check_composition_bound(ident, ident, PolygonalPath.segment([0.0], [1.0]))
    assert rep.passed
    assert rep.detail["kt_comp"] == 0


def test_composition_bound_random_networks():
    rng = np.random.default_rng(41)
    for _ in range(10):
        f1 = NetworkSpec(1, (Affine(AffineMap(rng.normal(size=(2, 1)), rng.normal(size=2))),
                             Pointwise(tuple(abs_unit() for _ in range(2))),
                             Affine(AffineMap(rng.normal(size=(1, 2)), rng.normal(size=1)))))
        f2 = NetworkSpec(1, (Affine(AffineMap(rng.normal(size=(3, 1)), rng.normal(size=3))),
                             Pointwise(tuple(relu_unit() for _ in range(3))),
                             Affine(AffineMap(rng.normal(size=(1, 3)), rng.normal(size=1)))))
        rep = check_composition_bound(f1, f2, PolygonalPath.segment([-2.0], [2.0]))
        assert isinstance(rep, InequalityReport)
        assert rep.passed


def test_inequality_report_failure_formatting():
    rep = InequalityReport(False, 2.0, 1.0, {})
    assert str(rep) == "FAIL: 2 <= 1"
