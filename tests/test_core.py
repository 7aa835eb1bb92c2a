"""Scalar CPWL algebra, layer piece selection, and network evaluation."""
import warnings

import numpy as np
import pytest

from cpwl import core
from cpwl.core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec,
                       Pointwise, PWLU2D, ScalarCPWL, ValidationError,
                       abs_unit, compose, compose_scalar, eval_jacobian,
                       eval_scalar, identity_unit, layer_piece, layer_value,
                       leaky_relu_unit, relu_unit, sum_scalar, zero_unit)


def dense_grid(lo=-3.0, hi=3.0, n=601):
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# ScalarCPWL
# ---------------------------------------------------------------------------

def test_scalar_canonicalization_merges_equal_slopes():
    f = ScalarCPWL((0.0, 1.0), (1.0, 1.0, 2.0), 0.0)
    assert f.breakpoints == (1.0,)
    assert f.slopes == (1.0, 2.0)
    assert f.region_count == 2


def test_scalar_validation():
    with pytest.raises(ValidationError):
        ScalarCPWL((1.0, 0.0), (1.0, 2.0, 3.0), 0.0)  # unsorted breakpoints
    with pytest.raises(ValidationError):
        ScalarCPWL((0.0,), (1.0,), 0.0)  # slope count mismatch


def test_eval_scalar_right_continuous_at_breakpoints():
    f = relu_unit()
    assert eval_scalar(f, 0.0) == 0.0
    assert f.piece_index(0.0) == 1  # the right piece owns the breakpoint
    assert f.piece_index(0.0, side=-1) == 0
    assert eval_scalar(f, -1.0) == 0.0
    assert eval_scalar(f, 2.0) == 2.0


def test_builtin_units():
    ts = dense_grid()
    assert np.allclose([eval_scalar(abs_unit(), t) for t in ts], np.abs(ts))
    assert np.allclose([eval_scalar(relu_unit(), t) for t in ts], np.maximum(ts, 0))
    lk = leaky_relu_unit(0.1)
    assert np.allclose([eval_scalar(lk, t) for t in ts],
                       np.where(ts >= 0, ts, 0.1 * ts))
    assert np.allclose([eval_scalar(identity_unit(), t) for t in ts], ts)
    assert np.allclose([eval_scalar(zero_unit(), t) for t in ts], 0.0)


def test_sum_scalar_matches_pointwise_sum():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = ScalarCPWL(tuple(np.sort(rng.normal(size=3)).tolist()),
                       tuple(rng.normal(size=4).tolist()), float(rng.normal()))
        g = ScalarCPWL(tuple(np.sort(rng.normal(size=2)).tolist()),
                       tuple(rng.normal(size=3).tolist()), float(rng.normal()))
        h = sum_scalar(f, g)
        for t in dense_grid():
            assert eval_scalar(h, t) == pytest.approx(
                eval_scalar(f, t) + eval_scalar(g, t), abs=1e-9)


def test_compose_scalar_matches_pointwise_composition():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = ScalarCPWL(tuple(np.sort(rng.normal(size=3)).tolist()),
                       tuple(rng.normal(size=4).tolist()), float(rng.normal()))
        g = ScalarCPWL(tuple(np.sort(rng.normal(size=2)).tolist()),
                       tuple(rng.normal(size=3).tolist()), float(rng.normal()))
        h = compose_scalar(f, g)  # t -> f(g(t))
        want = [eval_scalar(f, eval_scalar(g, t)) for t in dense_grid()]
        got = [eval_scalar(h, t) for t in dense_grid()]
        assert np.allclose(got, want, atol=1e-8)


def test_compose_scalar_region_count_submultiplicative():
    f = ScalarCPWL((-1.0, 1.0), (1.0, -2.0, 3.0), 0.0)
    g = ScalarCPWL((0.0,), (1.0, 2.0), 0.0)
    h = compose_scalar(f, g)
    assert h.region_count <= f.region_count * g.region_count


# ---------------------------------------------------------------------------
# Layers and piece selection
# ---------------------------------------------------------------------------

def random_net(rng, d_in=2):
    layers = (
        Affine(AffineMap(rng.normal(size=(4, d_in)), rng.normal(size=4))),
        Pointwise(tuple(relu_unit() for _ in range(4))),
        Affine(AffineMap(rng.normal(size=(4, 4)), rng.normal(size=4))),
        GroupSort(2),
        Maxout(3, rng.normal(size=(3, 3, 4)), rng.normal(size=(3, 3))),
        Affine(AffineMap(rng.normal(size=(2, 3)), rng.normal(size=2))),
    )
    return NetworkSpec(d_in, layers)


def test_layer_piece_matches_layer_value_everywhere():
    rng = np.random.default_rng(7)
    net = random_net(rng)
    for _ in range(100):
        z = rng.normal(size=2)
        cur = z
        for layer in net.layers:
            S, c = layer_piece(layer, cur)
            out = layer_value(layer, cur)
            assert np.allclose(S @ cur + c, out, atol=1e-10)
            cur = out


def test_maxout_tie_takes_first_argmax():
    # Two candidates equal at the query point: the first one supplies the piece.
    layer = Maxout(2, np.array([[[1.0], [-1.0]]]), np.zeros((1, 2)))
    S, c = layer_piece(layer, np.array([0.0]))
    assert S[0, 0] == 1.0 and c[0] == 0.0


def test_groupsort_sorts_ascending_within_groups():
    layer = GroupSort(2)
    z = np.array([3.0, -1.0, 0.5, 2.0])
    out = layer_value(layer, z)
    assert np.allclose(out, [-1.0, 3.0, 0.5, 2.0])
    S, c = layer_piece(layer, z)
    assert np.allclose(S @ z + c, out)


def test_eval_matches_layerwise_values():
    rng = np.random.default_rng(8)
    net = random_net(rng)
    for _ in range(50):
        x = rng.normal(size=2)
        cur = x
        for layer in net.layers:
            cur = layer_value(layer, cur)
        assert np.allclose(core.eval(net, x), cur, atol=1e-12)


def test_eval_jacobian_matches_finite_differences():
    rng = np.random.default_rng(9)
    net = random_net(rng)
    eps = 1e-6
    hits = 0
    for _ in range(40):
        x = rng.normal(size=2)
        z, A, b = eval_jacobian(net, x)
        assert np.allclose(A @ x + b, z, atol=1e-9)
        fd = np.column_stack([
            (core.eval(net, x + eps * e) - core.eval(net, x - eps * e)) / (2 * eps)
            for e in np.eye(2)])
        if np.allclose(fd, A, atol=1e-4):
            hits += 1
    assert hits >= 38  # generic points: off only within eps of a boundary


def test_eval_jacobian_side_convention_at_breakpoint():
    net = NetworkSpec(1, (Pointwise((relu_unit(),)),))
    x = np.array([0.0])
    _, A_right, _ = eval_jacobian(net, x)
    _, A_left, _ = eval_jacobian(net, x, side=np.array([-1.0]))
    assert A_right[0, 0] == 1.0
    assert A_left[0, 0] == 0.0


def _tie_cases():
    """(net, x, side, expected (A, b)) at points where pieces tie; ``side``
    None is the two-sided query."""
    def pw(f):
        return NetworkSpec(1, (Pointwise((f,)),))
    f = ScalarCPWL((1.0,), (2.0, -3.0), 5.0)  # at t = 1: left 2t + 3, right -3t + 8
    yield pw(f), [1.0], None, ([[-3.0]], [8.0])
    yield pw(f), [1.0], [1.0], ([[-3.0]], [8.0])
    yield pw(f), [1.0], [-1.0], ([[2.0]], [3.0])
    # Three maxout candidates equal at (1, 1), slopes (1, 0), (0, 1), (-1, -1):
    # the largest directional slope wins, then the first candidate.
    W, o = np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]]), np.array([[0.0, 0.0, 3.0]])
    mx = NetworkSpec(2, (Maxout(3, W, o),))
    for side, k in ((None, 0), ([1.0, 0.0], 0), ([0.0, 1.0], 1), ([-1.0, -1.0], 2),
                    ([1.0, 1.0], 0), ([-1.0, 2.0], 1)):
        yield mx, [1.0, 1.0], side, (W[:, k], o[:, k])
    # Equal entries sort by directional slope, then stably.
    gs = NetworkSpec(3, (GroupSort(3),))
    for side, order in ((None, [0, 1, 2]), ([3.0, 1.0, 2.0], [1, 2, 0]),
                        ([0.0, 1.0, 0.0], [0, 2, 1]), ([1.0, 1.0, 1.0], [0, 1, 2])):
        yield gs, [2.0, 2.0, 2.0], side, (np.eye(3)[order], np.zeros(3))
    # PWLU2D, grid_m = 3: nodes -1, 0, 1 and step 1.
    layer = PWLU2D(3, np.random.default_rng(5).normal(size=(1, 3, 3)),
                   (AffineMap(np.eye(2), np.zeros(2)),))
    net = NetworkSpec(2, (layer,))

    def tri(col, row, lower, u_clamp=None, v_clamp=None):
        a, b, c = layer.cell_piece(col, row, lower, 0)
        if u_clamp is not None:
            a, c = 0.0, c + a * u_clamp
        if v_clamp is not None:
            b, c = 0.0, c + b * v_clamp
        return [[a, b]], [c]
    # On the grid line u = 0: the right column, the left one moving left.
    for side, piece in ((None, tri(1, 1, False)), ([1.0, 0.0], tri(1, 1, False)),
                        ([-1.0, 0.0], tri(0, 1, True)), ([-1.0, -1.0], tri(0, 1, True))):
        yield net, [0.0, 0.3], side, piece
    # On the diagonal u - v = 1 of cell (1, 0): the lower triangle only when
    # u - v grows; along the diagonal, the upper one.
    for side, piece in ((None, tri(1, 0, False)), ([1.0, -1.0], tri(1, 0, True)),
                        ([-1.0, 1.0], tri(1, 0, False)), ([1.0, 1.0], tri(1, 0, False)),
                        ([1.0, 0.0], tri(1, 0, True))):
        yield net, [0.5, -0.5], side, piece
    # On the clamp edge u = 1: moving outward, u enters as the constant 1.
    for side, piece in ((None, tri(1, 1, True)), ([-1.0, 0.0], tri(1, 1, True)),
                        ([1.0, 0.0], tri(1, 1, True, u_clamp=1.0)),
                        ([1.0, -1.0], tri(1, 1, True, u_clamp=1.0))):
        yield net, [1.0, 0.3], side, piece
    # At the corner (1, 1) moving outward both coordinates clamp.
    yield net, [1.0, 1.0], [1.0, 1.0], tri(1, 1, True, u_clamp=1.0, v_clamp=1.0)


def test_tie_conventions_pinned_for_every_layer_type():
    # The reference and the engines' piece selection (switching.compose) pick
    # the same hand-computed piece at every tie, one-sided and two-sided.
    from cpwl.switching import raw_layers, stack
    for net, x, side, (A_ref, b_ref) in _tie_cases():
        x = np.array(x)
        A_ref, b_ref = np.array(A_ref, dtype=float), np.array(b_ref, dtype=float)
        z, A, b = eval_jacobian(net, x, side=None if side is None else np.array(side))
        assert np.allclose(A, A_ref, atol=1e-12) and np.allclose(b, b_ref, atol=1e-12)
        assert np.allclose(z, A_ref @ x + b_ref, atol=1e-12)
        u = np.zeros_like(x) if side is None else np.array(side) / np.linalg.norm(side)
        (layer,) = stack([raw_layers(net)])
        A_sw, b_sw = layer.compose(np.eye(len(x))[None], np.zeros((1, len(x))), x[None], u[None])
        assert np.allclose(A_sw[0], A_ref, atol=1e-12) and np.allclose(b_sw[0], b_ref, atol=1e-12)


def test_compose_networks_evaluates_sequentially():
    rng = np.random.default_rng(10)
    f = NetworkSpec(2, (Affine(AffineMap(rng.normal(size=(3, 2)), rng.normal(size=3))),
                        Pointwise(tuple(abs_unit() for _ in range(3)))))
    g = NetworkSpec(3, (Affine(AffineMap(rng.normal(size=(1, 3)), rng.normal(size=1))),
                        Pointwise((relu_unit(),))))
    h = compose(f, g)
    assert h.input_dim == 2 and h.output_dim == 1
    for _ in range(50):
        x = rng.normal(size=2)
        assert np.allclose(core.eval(h, x), core.eval(g, core.eval(f, x)), atol=1e-12)


def test_network_dim_flow_and_validation():
    rng = np.random.default_rng(11)
    net = random_net(rng)
    assert net.dims == (2, 4, 4, 4, 4, 3, 2)
    with pytest.raises(ValidationError):
        NetworkSpec(2, (Affine(AffineMap(np.eye(3), np.zeros(3))),))  # 3x3 on d=2
    with pytest.raises(ValidationError):
        NetworkSpec(3, (GroupSort(2),))  # width not divisible by group size
    with pytest.raises(ValidationError):
        NetworkSpec(0, ())


# ---------------------------------------------------------------------------
# 2D lookup units
# ---------------------------------------------------------------------------

def test_pwlu2d_interpolates_grid_values_at_nodes():
    rng = np.random.default_rng(12)
    vals = rng.normal(size=(1, 4, 4))
    layer = PWLU2D(4, vals, (AffineMap(np.eye(2), np.zeros(2)),))
    assert layer.grid_step == pytest.approx(2.0 / 3.0)
    for i in range(4):
        for j in range(4):
            z = np.array([layer.grid_node(i), layer.grid_node(j)])
            assert layer_value(layer, z)[0] == pytest.approx(vals[0, i, j], abs=1e-12)


def test_pwlu2d_clamps_outside_grid():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(1, 3, 3))
    layer = PWLU2D(3, vals, (AffineMap(np.eye(2), np.zeros(2)),))
    inside = layer_value(layer, np.array([1.0, 0.3]))
    outside = layer_value(layer, np.array([5.0, 0.3]))
    assert inside[0] == pytest.approx(outside[0], abs=1e-12)


def test_pwlu2d_piece_matches_triangle_plane():
    rng = np.random.default_rng(14)
    layer = PWLU2D(4, rng.normal(size=(1, 4, 4)), (AffineMap(np.eye(2), np.zeros(2)),))
    h = layer.grid_step
    for col in range(3):
        for row in range(3):
            for lower in (True, False):
                a, b, c = layer.cell_piece(col, row, lower, 0)
                # Triangle corners in grid coordinates.
                u0, v0 = layer.grid_node(col), layer.grid_node(row)
                if lower:
                    tri = [(u0, v0), (u0 + h, v0), (u0 + h, v0 + h)]
                else:
                    tri = [(u0, v0), (u0, v0 + h), (u0 + h, v0 + h)]
                cx = sum(t[0] for t in tri) / 3.0
                cy = sum(t[1] for t in tri) / 3.0
                for _ in range(5):
                    # Stay near the centroid: safely inside the triangle.
                    w = np.array([cx, cy]) + (h / 20.0) * rng.uniform(-1, 1, size=2)
                    assert layer_value(layer, w)[0] == pytest.approx(
                        a * w[0] + b * w[1] + c, abs=1e-9)
                    S, cc = layer_piece(layer, w)
                    assert (S[0, 0], S[0, 1], cc[0]) == pytest.approx((a, b, c), abs=1e-12)


def test_row_norms_survive_overflowing_squares():
    # Rows whose square is finite keep np.linalg.norm's bits; a finite row
    # whose square overflows gets a finite norm, s ||v / s||; an infinite
    # row's norm is inf, a NaN row's NaN, and one past the largest float
    # inf. No warning in any case, and the one-row form agrees.
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 5):
        X = rng.normal(size=(400, d)) * 10.0 ** rng.uniform(-300, 160, size=(400, 1))
        X[::7, 0] = 1.4e154
        X[1, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = core.row_norms(X)
            for x, n in zip(X, norms.tolist()):
                assert n == core.vector_norm(x)
                with np.errstate(over="ignore"):
                    square = x.dot(x)
                if np.isfinite(square):
                    assert n == np.linalg.norm(x)
                else:
                    assert np.isfinite(n) and n == pytest.approx(np.hypot.reduce(x), rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        special = core.row_norms(np.array([[np.inf, 1.0], [np.nan, 1.0], [0.0, 0.0],
                                           [1.5e308, 1.5e308]]))
    assert np.isinf(special[0]) and np.isnan(special[1]) and special[2] == 0.0
    assert np.isinf(special[3])
