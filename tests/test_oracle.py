"""Grid-sampling cross-checks independent of the exact subdivision engine."""
import numpy as np
import pytest

from cpwl import oracle
from cpwl.constructions import (extremal_sum_network,
                                general_position_partitions, sawtooth)
from cpwl.core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec,
                       Pointwise, PWLU2D, ValidationError, abs_unit,
                       batch_pieces, eval_jacobian, relu_unit)
from cpwl.geometry import count_report, enumerate_regions
from cpwl.oracle import (MIN_RESOLUTION, grid_fingerprint, grid_knot_count,
                         grid_region_count)
from cpwl.paths import PolygonalPath, count_knots


def saw_net(p):
    return NetworkSpec(1, (Pointwise((sawtooth(p),)),))


def mixed_net():
    rng = np.random.default_rng(11)
    return NetworkSpec(2, (
        Affine(AffineMap(rng.normal(size=(4, 2)), rng.normal(size=4))),
        Maxout(2, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2))),
        GroupSort(2),
        Affine(AffineMap(rng.normal(size=(1, 4)), rng.normal(size=1))),
    ))


# ---------------------------------------------------------------------------
# batch_pieces
# ---------------------------------------------------------------------------

def test_batch_pieces_matches_pointwise_jacobians():
    net = mixed_net()
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, size=(200, 2))
    _, A, b = batch_pieces(net, X)
    for i in range(len(X)):
        _, Ai, bi = eval_jacobian(net, X[i])
        assert np.allclose(A[i], Ai, atol=1e-10)
        assert np.allclose(b[i], bi, atol=1e-10)


def test_batch_pieces_reconstructs_values():
    net = mixed_net()
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, size=(100, 2))
    _, A, b = batch_pieces(net, X)
    from cpwl import core
    for i in range(len(X)):
        assert np.allclose(A[i] @ X[i] + b[i], core.eval(net, X[i]), atol=1e-10)


def test_batch_pieces_handles_grid_units():
    rng = np.random.default_rng(3)
    net = NetworkSpec(2, (PWLU2D(4, rng.normal(size=(1, 4, 4)),
                                 (AffineMap(np.eye(2), np.zeros(2)),)),))
    X = rng.uniform(-1.5, 1.5, size=(50, 2))
    _, A, b = batch_pieces(net, X)
    for i in range(len(X)):
        _, Ai, bi = eval_jacobian(net, X[i])
        assert np.allclose(A[i], Ai) and np.allclose(b[i], bi)


def test_batch_pieces_validates_dimension():
    with pytest.raises(ValidationError):
        batch_pieces(mixed_net(), np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# Region counting on grids
# ---------------------------------------------------------------------------

def test_single_fold_line():
    rng = np.random.default_rng(3)
    net = NetworkSpec(2, (Affine(AffineMap(rng.normal(size=(1, 2)), rng.normal(size=1))),
                          Pointwise((relu_unit(),))))
    assert grid_region_count(net, (-2.0, 2.0), 64) == (2, 2)


def test_two_candidate_maxout():
    net = NetworkSpec(2, (Maxout(2, np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.zeros((1, 2))),))
    assert grid_region_count(net, (-2.0, 2.0), 64) == (2, 2)


def test_sawtooth_regions_1d():
    assert grid_region_count(saw_net(4), (0.0, 1.0), 64) == (4, 4)


def test_affine_net_is_one_region():
    net = NetworkSpec(2, (Affine(AffineMap(np.eye(2), np.ones(2))),))
    assert grid_region_count(net, (-1.0, 1.0), 32) == (1, 1)


def test_generic_partition_grid_count():
    net = general_position_partitions(2, (3, 3), seed=0)
    assert grid_region_count(net, (-2.0, 2.0), 512) == (9, 9)


def test_grid_count_monotone_in_resolution():
    net = extremal_sum_network(2, (3, 3), seed=0)
    counts = [grid_region_count(net, (-2.0, 2.0), res)[0] for res in (16, 64, 256)]
    assert counts == sorted(counts)
    assert counts[-1] == 9


def test_grid_distinct_never_exceeds_exact_distinct():
    nets = [
        (mixed_net(), (-2.0, 2.0)),
        (extremal_sum_network(2, (3, 3), seed=0), (-2.0, 2.0)),
        (general_position_partitions(2, (2, 2, 2), seed=4), (-2.0, 2.0)),
    ]
    for net, box in nets:
        exact = count_report(enumerate_regions(net, domain=box))
        for res in (16, 64, 128):
            n_distinct, _ = grid_region_count(net, box, res)
            assert n_distinct <= exact.distinct_piece_count
        n_distinct, _ = grid_region_count(net, box, 512)
        assert n_distinct == exact.distinct_piece_count


def test_grid_components_can_exceed_exact_cells():
    # Two cells narrow to wedge tips thinner than a pixel; 4-connectivity
    # breaks each tip into separate pixel islands, so the component count is
    # no lower estimate of the exact counts.
    rng = np.random.default_rng(9)
    net = NetworkSpec(2, (Affine(AffineMap(rng.normal(size=(4, 2)), rng.normal(size=4))),
                          Pointwise((relu_unit(),) * 4),
                          Affine(AffineMap(rng.normal(size=(1, 4)), rng.normal(size=1)))))
    box = (-2.0, 2.0)
    exact = count_report(enumerate_regions(net, domain=box))
    assert (exact.cell_count, exact.distinct_piece_count, exact.connected_piece_count) == (5, 5, 5)
    for res in (64, 128, 256):
        n_distinct, n_components = grid_region_count(net, box, res)
        assert n_distinct == 5
        assert n_components > exact.cell_count


def test_mixed_net_grid_agrees_with_engine():
    assert grid_region_count(mixed_net(), (-2.0, 2.0), 512) == (12, 12)


def test_pwlu_grid_count():
    rng = np.random.default_rng(3)
    net = NetworkSpec(2, (PWLU2D(4, rng.normal(size=(1, 4, 4)),
                                 (AffineMap(np.eye(2), np.zeros(2)),)),))
    assert grid_region_count(net, (-1.0, 1.0), 512) == (18, 18)


def test_fingerprint_exposes_labels():
    fp = grid_fingerprint(saw_net(4), (0.0, 1.0), 32)
    assert fp.resolution == 32
    assert fp.labels.shape == (32,)
    assert fp.n_distinct == 4
    # Labels change exactly at the three knots.
    assert int(np.count_nonzero(fp.labels[1:] != fp.labels[:-1])) == 3


def test_labels_partition_rows_as_unique_on_axis_0(monkeypatch):
    # Labels come from np.unique on a byte view of the quantized int64 rows:
    # the same partition as np.unique(axis=0), whatever the numbering.
    monkeypatch.setattr(oracle, "_quantize", lambda rows: rows)
    rng = np.random.default_rng(16)
    for n, k, span in ((1, 1, 3), (500, 1, 4), (2000, 3, 3), (800, 7, 2 ** 62), (300, 2, 1)):
        Q = rng.integers(-span, span, size=(n, k), dtype=np.int64)
        Q[rng.integers(0, n, n // 3)] = Q[rng.integers(0, n, n // 3)]  # duplicate rows
        labels, n_labels = oracle._labels(Q[:, :, None], Q[:, :0])
        uniq, ref = np.unique(Q, axis=0, return_inverse=True)
        assert labels.shape == (n,) and n_labels == len(uniq)
        assert len(set(zip(labels.tolist(), ref.ravel().tolist()))) == n_labels


def test_resolution_floor():
    with pytest.raises(ValidationError):
        grid_region_count(saw_net(4), (0.0, 1.0), MIN_RESOLUTION - 1)
    with pytest.raises(ValidationError):
        grid_knot_count(saw_net(4), ([0.0], [1.0]), MIN_RESOLUTION - 1)


def test_three_input_nets_are_rejected():
    net = NetworkSpec(3, (GroupSort(3),))
    with pytest.raises(ValidationError):
        grid_region_count(net, (-1.0, 1.0), 32)


# ---------------------------------------------------------------------------
# Knot counting on segments
# ---------------------------------------------------------------------------

def test_relu_knot():
    assert grid_knot_count(NetworkSpec(1, (Pointwise((relu_unit(),)),)),
                           ([-1.0], [1.0]), 16) == 1


def test_sawtooth_knots():
    assert grid_knot_count(saw_net(8), ([0.0], [1.0]), 1024) == 7


def test_affine_has_no_knots():
    net = NetworkSpec(2, (Affine(AffineMap(np.ones((1, 2)), np.zeros(1))),))
    assert grid_knot_count(net, ([-1.0, 0.0], [1.0, 0.5]), 64) == 0


def test_grid_knots_never_exceed_exact_and_converge():
    rng = np.random.default_rng(17)
    net = NetworkSpec(2, (
        Affine(AffineMap(rng.normal(size=(5, 2)), rng.normal(size=5))),
        Pointwise(tuple(abs_unit() for _ in range(5))),
        Affine(AffineMap(rng.normal(size=(1, 5)), rng.normal(size=1))),
    ))
    for _ in range(10):
        p0, p1 = rng.uniform(-2, 2, size=(2, 2))
        exact = count_knots(net, PolygonalPath(np.stack([p0, p1]))).count
        low = grid_knot_count(net, (p0, p1), 32)
        high = grid_knot_count(net, (p0, p1), 4096)
        assert low <= exact
        assert high == exact


def test_knot_count_rejects_degenerate_segment():
    with pytest.raises(ValidationError):
        grid_knot_count(saw_net(4), ([0.3], [0.3]), 64)
