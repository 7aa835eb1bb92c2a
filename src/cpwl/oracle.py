"""Independent brute-force verifiers.

Grid-Jacobian method: evaluate the network's one-sided affine piece
(Jacobian + offset) on a dense sample grid, quantize into fingerprints, and
count distinct fingerprints and 4-connected monochrome components. The
distinct count misses the pieces of cells that no sample hits; it exceeds the
exact distinct-piece count only if rounding gives one piece two labels. The
component count bounds nothing: missed cells lower it, and 4-connectivity
breaks a wedge tip thinner than a pixel into separate islands, which raises it
above even the exact cell count. A dense 1D variant counts knots along a
segment the same way.

The pieces come from ``core.batch_pieces``, the reference evaluator: it
evaluates every sample on its own (batched, but point by point in meaning)
and imports nothing from ``switching``, ``geometry`` or ``paths``, so the
oracle shares no machinery with the exact engines it cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NetworkSpec, ValidationError, batch_pieces

FINGERPRINT_REL_TOL = 1e-6
MIN_RESOLUTION = 8


@dataclass(frozen=True)
class GridFingerprint:
    resolution: int
    box: tuple
    labels: np.ndarray        # one integer fingerprint label per sample
    n_distinct: int
    n_components: int


def _quantize(rows: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(rows).max()))
    return np.round(rows / (FINGERPRINT_REL_TOL * scale)).astype(np.int64)


def _labels(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Labels of the quantized rows, compared as raw bytes (np.void) to sort
    fast, and their number: the partition np.unique(axis=0) gives."""
    q = np.ascontiguousarray(_quantize(np.concatenate([A.reshape(A.shape[0], -1), b], axis=1)))
    uniq, labels = np.unique(q.view(np.dtype((np.void, q.strides[0]))).ravel(), return_inverse=True)
    return labels.ravel(), len(uniq)


def grid_fingerprint(net: NetworkSpec, box, resolution: int) -> GridFingerprint:
    """Fingerprint map over a sample grid (2D box) or segment (1D box)."""
    if resolution < MIN_RESOLUTION:
        raise ValidationError(f"resolution must be at least {MIN_RESOLUTION}")
    d = net.input_dim
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (d,))
    if d == 1:
        xs = lo[0] + (np.arange(resolution) + 0.5) * (hi[0] - lo[0]) / resolution
        X = xs[:, None]
    elif d == 2:
        steps = (np.arange(resolution) + 0.5) / resolution
        gx = lo[0] + steps * (hi[0] - lo[0])
        gy = lo[1] + steps * (hi[1] - lo[1])
        GX, GY = np.meshgrid(gx, gy, indexing="ij")
        X = np.stack([GX.ravel(), GY.ravel()], axis=1)
    else:
        raise ValidationError("grid oracle supports 1 or 2 inputs")
    _, A, b = batch_pieces(net, X)
    labels, n_distinct = _labels(A, b)
    if d == 1:
        n_comp = 1 + int(np.count_nonzero(labels[1:] != labels[:-1]))
    else:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        lab2 = labels.reshape(resolution, resolution)
        idx = np.arange(resolution * resolution).reshape(resolution, resolution)
        rows, cols = [], []
        right = lab2[:, :-1] == lab2[:, 1:]
        rows.append(idx[:, :-1][right])
        cols.append(idx[:, 1:][right])
        down = lab2[:-1, :] == lab2[1:, :]
        rows.append(idx[:-1, :][down])
        cols.append(idx[1:, :][down])
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        graph = coo_matrix((np.ones(len(rows)), (rows, cols)),
                           shape=(resolution ** 2, resolution ** 2))
        n_comp, _ = connected_components(graph, directed=False)
    return GridFingerprint(resolution, (tuple(lo.tolist()), tuple(hi.tolist())),
                           labels, n_distinct, int(n_comp))


def grid_region_count(net: NetworkSpec, box, resolution: int) -> tuple[int, int]:
    """(distinct fingerprints, 4-connected components) on the sample grid.
    The distinct count misses pieces that no sample hits. The component count
    is no lower estimate: thin wedge tips split into pixel islands, so it can
    exceed the exact cell count."""
    fp = grid_fingerprint(net, box, resolution)
    return fp.n_distinct, fp.n_components


def grid_knot_count(net: NetworkSpec, segment, resolution: int) -> int:
    """Dense-sampling knot count along a straight segment: fingerprint the
    restricted piece (directional slope + value intercept) at uniform samples
    and count adjacent changes. Never exceeds the exact knot count; equals it
    once adjacent knots are more than two samples apart."""
    if resolution < MIN_RESOLUTION:
        raise ValidationError(f"resolution must be at least {MIN_RESOLUTION}")
    p0, p1 = segment
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    p1 = np.atleast_1d(np.asarray(p1, dtype=float))
    L = float(np.linalg.norm(p1 - p0))
    if L == 0.0:
        raise ValidationError("segment endpoints must differ")
    u = (p1 - p0) / L
    ts = (np.arange(resolution) + 0.5) * L / resolution
    X = p0[None, :] + ts[:, None] * u[None, :]
    vals, A, _ = batch_pieces(net, X)
    slope = np.einsum("nkd,d->nk", A, u)
    intercept = vals - slope * ts[:, None]
    labels, _ = _labels(slope[:, :, None], intercept)
    return int(np.count_nonzero(labels[1:] != labels[:-1]))
