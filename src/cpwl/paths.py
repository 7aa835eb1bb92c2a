"""Exact knot counting along 1D polygonal paths.

A network restricted to a straight segment is a CPWL function of the arc
parameter. Segments are propagated together, layer by layer, as subdivisions
of their parameter intervals: the intervals ``[lo, hi]`` of all segments, the
segment owning each, and the affine profiles ``z(s) = Q + P*s`` of the
intervals as (n, width) arrays ``P`` and ``Q``. The segments share one net,
or each has its own, in stacked layers (``switching``) gathered by owner.
Each layer runs once on the whole arrays. A non-affine layer's switching rows
(``switching``, with d = 1) give the exact cut points ``-c / N`` of all
intervals and units, one sort merges them into the subdivision, and its piece
selection picks the active piece of every interval at its midpoint. An affine
layer sums elementwise products over its input width in a fixed order, not a
matrix product, whose row bits depend on the row count and the BLAS kernel:
no step mixes segments, so a segment's knots and image length do not depend
on the batch. An integer array beside the intervals holds the layer that
introduced each cut. A cut is a knot iff the restricted affine piece (slope
vector or value) differs on its two sides; cuts where nothing changes,
including stretches that ride along a switching boundary, are discarded.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Optional, Sequence

import numpy as np

# layer_piece is not called here; it stays importable as paths.layer_piece,
# where bench/spans.py counts the calls made through this module.
from .core import (Affine, AffineMap, NetworkSpec, Pointwise,  # noqa: F401
                   ValidationError, compose, identity_unit, layer_piece,
                   row_norms)
from .switching import raw_layers, stack

KNOT_REL_TOL = 1e-9
_CUT_MERGE_REL = 1e-12
PATH_VERTEX = -1  # attribution sentinel for knots caused by a path bend


@dataclass(frozen=True)
class PolygonalPath:
    """Piecewise-straight path, parameterized by arc length (unit speed)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValidationError("a path needs at least two vertices")
        if np.any(row_norms(np.diff(v, axis=0)) == 0.0):  # _Segments divides by it
            raise ValidationError("consecutive path vertices must be distinct")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @classmethod
    def segment(cls, p0, p1) -> "PolygonalPath":
        return cls(np.stack([np.atleast_1d(np.asarray(p0, dtype=float)),
                             np.atleast_1d(np.asarray(p1, dtype=float))]))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def segment_lengths(self) -> np.ndarray:
        # Not row_norms: the Monte Carlo densities divide by these bits. A
        # finite row whose square overflows gets s ||v / s||, s its largest |entry|.
        v = np.diff(self.vertices, axis=0)
        with np.errstate(over="ignore"):
            lengths = np.linalg.norm(v, axis=1)
            over = np.flatnonzero(np.isinf(lengths) & np.isfinite(v).all(axis=1))
            if len(over):
                s = np.abs(v[over]).max(axis=1)
                lengths[over] = s * np.linalg.norm(v[over] / s[:, None], axis=1)
        return lengths

    @property
    def length(self) -> float:
        return float(self.segment_lengths.sum())


@dataclass(frozen=True)
class KnotReport:
    knot_params: tuple         # sorted global arc-length parameters
    layers: tuple              # introducing layer index per knot (PATH_VERTEX at bends)
    at_vertex: tuple           # True where the knot sits on a path vertex
    count: int
    length: float
    density: float
    prefix_counts: Optional[tuple] = None  # knot count after each requested layer prefix


# ---------------------------------------------------------------------------
# Batched propagation
#
# Networks enter the engine as stacked layers (see ``switching``), each array
# with a leading axis of 1 (one net shared by every segment) or of the
# segment count (net t for segment t).
# ---------------------------------------------------------------------------

class _Segments:
    """Straight segments under propagation, all at once. The subdivision is
    a list of intervals ``[lo, hi]``, grouped by segment (``owner``) and
    ascending within it; ``layer_of`` is the layer that introduced each
    interval's left end (``PATH_VERTEX`` at a segment start), and the
    profiles ``Q + P*s`` of the intervals are (n, width) arrays."""

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        diff = ends - starts
        self.length = row_norms(diff)
        self.tol = _CUT_MERGE_REL * np.maximum(1.0, self.length)
        self.lo, self.hi = np.zeros(len(diff)), self.length
        self.layer_of = np.full(len(diff), PATH_VERTEX)
        self.owner = np.arange(len(diff))
        self.P, self.Q = diff / self.length[:, None], starts

    def bounds(self) -> np.ndarray:
        """Index of each segment's first interval, and the interval count."""
        return np.searchsorted(self.owner, np.arange(len(self.length) + 1))

    def midpoints(self) -> np.ndarray:
        mids = (self.lo + self.hi) / 2.0
        return self.Q + self.P * mids[:, None]

    def refine(self, li: int, num: np.ndarray, den: np.ndarray) -> None:
        """Cut at the parameters ``num / den`` (first axis: interval) that lie
        inside their interval by more than the segment's ``tol``;
        ``|den| < 1e-300`` gives none. Candidates are taken in ascending
        order per segment, and one within ``tol`` of the previous kept cut or
        of the next cut is dropped. Sub-intervals inherit the profile."""
        n, tol = len(self.lo), self.tol[self.owner]
        shape = (-1,) + (1,) * (num.ndim - 1)
        with np.errstate(over="ignore"):  # an infinite cut lies in no interval
            r = num / np.where(np.abs(den) < 1e-300, np.nan, den)
        inside = (r > (self.lo + tol).reshape(shape)) & (r < (self.hi - tol).reshape(shape))
        iv, r = inside.nonzero()[0], r[inside]
        if not r.size:
            return
        order = np.lexsort((r, iv))
        iv, r = iv[order], r[order]
        # In the window a candidate is also farther than tol from both ends of
        # its interval (cuts >= 0; those differences round exactly), and close
        # candidates share an interval: only the previous kept one of the same
        # segment can clash, and the first of a run of close ones is kept.
        owner = self.owner[iv]
        close = ((r[1:] - r[:-1] <= tol[iv[1:]]) & (owner[1:] == owner[:-1])).nonzero()[0] + 1
        if close.size:
            keep = np.ones(r.size, dtype=bool)
            for k in close:
                j = k - 1
                while not keep[j]:
                    j -= 1
                keep[k] = r[k] - r[j] > tol[iv[k]]
            iv, r = iv[keep], r[keep]
        # Interval i becomes itself and one interval per cut inside it; cut k
        # starts new interval iv[k] + k + 1 and ends the one before.
        parent = np.repeat(np.arange(n), np.bincount(iv, minlength=n) + 1)
        at = iv + np.arange(1, r.size + 1)
        self.lo, self.hi, self.layer_of = self.lo[parent], self.hi[parent], self.layer_of[parent]
        self.lo[at], self.hi[at - 1], self.layer_of[at] = r, r, li
        self.owner, self.P, self.Q = self.owner[parent], self.P[parent], self.Q[parent]


def _switch(seg: _Segments, li: int, layer) -> None:
    """A non-affine layer: cut every interval where the layer switches, then
    compose each interval's profile with the piece active at its midpoint."""
    N, c = layer.per(seg.owner).rows(seg.P[..., None], seg.Q)
    seg.refine(li, -c, N[..., 0])  # new intervals: gather the nets' parameters anew
    A, seg.Q = layer.per(seg.owner).compose(seg.P[..., None], seg.Q, seg.midpoints(), seg.P)
    seg.P = A[..., 0]


def _affine(seg: _Segments, M: np.ndarray, b: np.ndarray) -> None:
    # Fixed-order elementwise sums: a row's bits do not depend on the batch.
    if len(M) > 1:
        M, b = M[seg.owner], b[seg.owner]
    P, Q = seg.P[:, :1] * M[:, :, 0], seg.Q[:, :1] * M[:, :, 0]
    for k in range(1, M.shape[2]):
        P += seg.P[:, k:k + 1] * M[:, :, k]
        Q += seg.Q[:, k:k + 1] * M[:, :, k]
    seg.P, seg.Q = P, Q + b


def _propagate(layers: Sequence, seg: _Segments):
    """Run the segments through the stacked layers, yielding each layer index
    once that layer is applied."""
    for li, layer in enumerate(layers):
        if layer.kind is Affine:
            _affine(seg, *layer.params)
        else:
            _switch(seg, li, layer)
        yield li


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows where ``a`` and ``b`` differ by more than ``KNOT_REL_TOL`` times
    the larger of their largest entries and 1."""
    def size(x):  # row maxima of |x|, column by column (same bits, fewer passes)
        x, m = np.abs(x), np.zeros(len(x))
        for k in range(x.shape[1]):
            np.maximum(m, x[:, k], out=m)
        return m
    return size(a - b) > KNOT_REL_TOL * np.maximum(1.0, np.maximum(size(a), size(b)))


def _piece_changes(seg: _Segments) -> np.ndarray:
    """Mask over adjacent intervals i, i+1 of one segment where the restricted
    piece differs between them: the slope vectors, or the values at the cut."""
    P, Q, s = seg.P, seg.Q, seg.hi[:-1, None]
    changed = _differ(P[:-1], P[1:]) | _differ(Q[:-1] + P[:-1] * s, Q[1:] + P[1:] * s)
    return changed & (seg.owner[1:] == seg.owner[:-1])


def _bends(seg: _Segments) -> list[bool]:
    """Whether the slope (per unit arc length) changes where each segment
    meets the next one, for segments that form one path."""
    k = seg.bounds()[1:-1]
    return _differ(seg.P[k - 1], seg.P[k]).tolist()


def segment_knot_counts(layers: Sequence, starts: np.ndarray, ends: np.ndarray,
                        after: Sequence[int]) -> np.ndarray:
    """Knots of each net along its own straight segment, from ``starts[t]``
    to ``ends[t]`` under net t of the stacked ``layers`` (one net for all, or
    one per segment): a (len(after), T) array of the knot counts of the nets
    truncated after each layer index in ``after``."""
    seg = _Segments(starts, ends)
    after = np.asarray(after)
    counts = np.zeros((len(after), len(starts)), dtype=int)
    for li in _propagate(layers, seg):
        for k in (after == li).nonzero()[0]:
            counts[k] = np.bincount(seg.owner[1:][_piece_changes(seg)],
                                    minlength=len(starts))
    return counts


def _image_lengths(seg: _Segments) -> list[float]:
    """Arc length of the image of each propagated segment."""
    w = row_norms(seg.P) * (seg.hi - seg.lo)
    bounds = seg.bounds()
    return [float(np.sum(w[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]


def segment_image_lengths(layers: Sequence, starts: np.ndarray,
                          ends: np.ndarray) -> list[float]:
    """Arc length of the image of each straight segment under its own net
    (stacked layers, as for ``segment_knot_counts``)."""
    seg = _Segments(starts, ends)
    for _ in _propagate(layers, seg):
        pass
    return _image_lengths(seg)


def _path_segments(net: NetworkSpec, path: PolygonalPath, asked=()) -> tuple[_Segments, dict]:
    """The segments of ``path`` propagated through ``net``, and the knot count
    of the net truncated after each layer index in ``asked``. Raises
    ``ValidationError`` where a layer leaves a piece that is not finite."""
    if path.dim != net.input_dim:
        raise ValidationError("path dimension must match the network input")
    seg, found = _Segments(path.vertices[:-1], path.vertices[1:]), {}
    with np.errstate(over="ignore", invalid="ignore"):  # tested for after each layer
        for li in _propagate(stack([raw_layers(net)]), seg):
            if not (np.isfinite(seg.P).all() and np.isfinite(seg.Q).all()):
                raise ValidationError("non-finite affine data")
            if li in asked:
                found[li] = int(_piece_changes(seg).sum()) + sum(_bends(seg))
    return seg, found


def count_knots(net: NetworkSpec, path: PolygonalPath,
                prefixes: bool | Sequence[int] = False) -> KnotReport:
    """Exact knots of the network restricted to the path.

    Knots strictly inside a segment come from layer switching; knots at path
    vertices (direction changes) are flagged ``at_vertex`` and attributed to
    the earlier segment with layer ``PATH_VERTEX``. ``prefixes=True``
    additionally reports the knot count of every depth-truncated network; a
    sequence of layer indices reports the networks truncated after those
    layers only, in its order. Pieces differ past ``KNOT_REL_TOL``. Raises
    ``ValidationError`` where a layer leaves a piece that is not finite.
    """
    layers = range(len(net.layers))
    asked = () if prefixes is False else layers if prefixes is True else [layers[i] for i in prefixes]
    seg, found = _path_segments(net, path, asked)
    hits = _piece_changes(seg).nonzero()[0]
    offsets = [0.0, *accumulate(seg.length.tolist())]
    params = np.array(offsets)[seg.owner[hits]] + seg.hi[hits]
    knots = list(zip(params.tolist(), seg.layer_of[hits + 1].tolist(), repeat(False)))
    knots += [(off, PATH_VERTEX, True) for off, bend in zip(offsets[1:], _bends(seg)) if bend]
    knots.sort(key=lambda k: k[0])  # stable: (parameter, layer, at_vertex)
    prefix_counts = None if prefixes is False else tuple(found[li] for li in asked)
    kt, length = len(knots), path.length
    return KnotReport(*(tuple(k[i] for k in knots) for i in range(3)), kt, length,
                      kt / length, prefix_counts)


# ---------------------------------------------------------------------------
# Image paths and lengths
# ---------------------------------------------------------------------------

def image_path(net: NetworkSpec, path: PolygonalPath) -> PolygonalPath:
    """The image polyline: the network maps each segment to a polyline with
    vertices at the restriction's cut parameters. Raises ``ValidationError``
    as ``count_knots`` does."""
    seg, _ = _path_segments(net, path)
    verts = []
    bounds = seg.bounds()
    for a, b in zip(bounds[:-1], bounds[1:]):
        P, Q = seg.P[a:b], seg.Q[a:b]
        verts += [Q + P * seg.lo[a:b, None], Q[-1:] + P[-1:] * seg.hi[b - 1]]
    verts = np.concatenate(verts)
    out = verts[np.concatenate([[True], np.any(verts[1:] != verts[:-1], axis=1)])]
    if len(out) < 2:
        raise ValidationError("image path degenerates to a point")
    return PolygonalPath(out)


def image_length(net: NetworkSpec, path: PolygonalPath) -> float:
    """Arc length of the image polyline (0 when the image is a point).
    Raises ``ValidationError`` as ``count_knots`` does."""
    # Summed left to right, as mc_image_length sums each trial's segments.
    return functools.reduce(operator.add, _image_lengths(_path_segments(net, path)[0]), 0.0)


# ---------------------------------------------------------------------------
# Density inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    passed: bool
    lhs: float
    rhs: float
    detail: dict

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}: {self.lhs:.6g} <= {self.rhs:.6g}"


def check_subadditivity(f1: NetworkSpec, f2: NetworkSpec,
                        path: PolygonalPath) -> InequalityReport:
    """Knot density of the sum and of the stacked pair against the sum of the
    individual densities. Counts are exact integers, so the density comparison
    is an exact integer comparison scaled by the common path length."""
    if f1.input_dim != f2.input_dim:
        raise ValidationError("summands need matching input dimensions")
    if f1.output_dim != f2.output_dim:
        raise ValidationError("summands need matching output dimensions")
    kt1 = count_knots(f1, path).count
    kt2 = count_knots(f2, path).count
    kt_stack = count_knots(_stack_networks(f1, f2), path).count
    kt_sum = count_knots(_sum_networks(f1, f2), path).count
    length = path.length
    passed = kt_sum <= kt1 + kt2 and kt_stack <= kt1 + kt2
    return InequalityReport(passed, max(kt_sum, kt_stack) / length,
                            (kt1 + kt2) / length,
                            {"kt_sum": kt_sum, "kt_stack": kt_stack,
                             "kt1": kt1, "kt2": kt2})


def _alternating_blocks(net: NetworkSpec):
    """Normalize an affine/pointwise network to blocks (affine, pointwise)*
    plus a trailing affine, merging consecutive affines."""
    M, o = np.eye(net.input_dim), np.zeros(net.input_dim)
    blocks = []
    for layer in net.layers:
        if isinstance(layer, Affine):
            o = layer.map.matrix @ o + layer.map.offset
            M = layer.map.matrix @ M
        elif isinstance(layer, Pointwise):
            blocks.append((AffineMap(M, o), layer))
            w = layer.out_dim(M.shape[0])
            M, o = np.eye(w), np.zeros(w)
        else:
            raise ValidationError("stacking supports affine and pointwise layers only")
    return blocks, AffineMap(M, o)


def _stack_networks(f1: NetworkSpec, f2: NetworkSpec) -> NetworkSpec:
    """(f1, f2) as one network: shared input, block-diagonal inner layers."""
    d = f1.input_dim
    b1, tail1 = _alternating_blocks(f1)
    b2, tail2 = _alternating_blocks(f2)
    n = max(len(b1), len(b2))

    def pad(blocks, tail):  # identity blocks after the shorter list
        w = tail.in_dim
        ident = (AffineMap(np.eye(w), np.zeros(w)), Pointwise((identity_unit(),) * w))
        return list(blocks) + [ident] * (n - len(blocks))

    def join(a1, a2, shared_input):
        if shared_input:
            M = np.vstack([a1.matrix, a2.matrix])
        else:
            M = np.block([[a1.matrix, np.zeros((a1.out_dim, a2.in_dim))],
                          [np.zeros((a2.out_dim, a1.in_dim)), a2.matrix]])
        return Affine(AffineMap(M, np.concatenate([a1.offset, a2.offset])))

    layers: list = []
    for i, ((a1, p1), (a2, p2)) in enumerate(zip(pad(b1, tail1), pad(b2, tail2))):
        layers += [join(a1, a2, i == 0), Pointwise(p1.units + p2.units)]
    layers.append(join(tail1, tail2, n == 0))
    return NetworkSpec(d, tuple(layers))


def _sum_networks(f1: NetworkSpec, f2: NetworkSpec) -> NetworkSpec:
    stacked = _stack_networks(f1, f2)
    k = f1.output_dim
    M = np.hstack([np.eye(k), np.eye(k)])
    return NetworkSpec(f1.input_dim,
                       stacked.layers + (Affine(AffineMap(M, np.zeros(k))),))


def check_composition_bound(f1: NetworkSpec, f2: NetworkSpec,
                            path: PolygonalPath) -> InequalityReport:
    """Composition density bound: the knots of f2(f1(.)) along the path are at
    most the knots of f1 along the path plus the knots of f2 along the image
    polyline — an exact integer comparison.

    Dividing by the path length gives the density form: the f2 term picks up
    the length ratio |f1(path)| / |path| as its change-of-measure factor.
    """
    if f2.input_dim != f1.output_dim:
        raise ValidationError("f2 must accept f1's output")
    comp = compose(f1, f2)
    kt_comp = count_knots(comp, path).count
    kt1 = count_knots(f1, path).count
    img_len = image_length(f1, path)
    if img_len > 1e-300:
        img = image_path(f1, path)
        kt2 = count_knots(f2, img).count
        lam2 = kt2 / img.length
    else:
        kt2, lam2 = 0, 0.0
    length = path.length
    passed = kt_comp <= kt1 + kt2
    detail = {"kt_comp": kt_comp, "kt1": kt1, "kt2_on_image": kt2,
              "image_length": img_len,
              "rhs_density": kt1 / length + (img_len / length) * lam2 if img_len > 1e-300
              else kt1 / length}
    return InequalityReport(passed, kt_comp / length, kt1 / length +
                            (kt2 / length), detail)
