"""Exact knot counting along 1D polygonal paths.

A network restricted to a straight segment is a CPWL function of the arc
parameter. Each segment is propagated layer by layer as a subdivision of the
parameter interval: cut parameters ``cuts`` (n + 1) and the affine profiles
``z(s) = Q + P*s`` of the n intervals as (n, width) arrays ``P`` and ``Q``.
Each layer runs once on the whole arrays: one expression gives the exact cut
points of all intervals and units (breakpoint crossings, envelope switches,
grid/diagonal crossings), one sort merges them into ``cuts``, and the active
piece of every interval is selected at its midpoint. An integer array beside
``cuts`` holds the layer that introduced each cut. A cut is a knot iff the
restricted affine piece (slope vector or value) actually differs on its two
sides; cuts where nothing changes, including stretches that ride along a
switching boundary, are discarded.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Optional

import numpy as np

# layer_piece is not called here; it stays importable as paths.layer_piece,
# where bench/spans.py counts the calls made through this module.
from .core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec,  # noqa: F401
                   Pointwise, PWLU2D, ValidationError, compose, identity_unit,
                   layer_piece)

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
        seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
        if np.any(seg == 0.0):
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
        return np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)

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
    prefix_counts: Optional[tuple] = None  # knot count after each layer prefix


# ---------------------------------------------------------------------------
# Per-segment propagation
# ---------------------------------------------------------------------------

class _Segment:
    """One straight segment under propagation: ``cuts`` (n + 1,), the layer
    that introduced each cut (``layer_of``, ``PATH_VERTEX`` at both ends),
    and the profiles ``Q + P*s`` of the n intervals as (n, width) arrays.
    ``states`` keeps ``(cuts, P, Q)`` after every layer; no array is ever
    written in place, so the states share them without copies."""

    def __init__(self, p0: np.ndarray, p1: np.ndarray):
        self.length = float(np.linalg.norm(p1 - p0))
        self.cuts = np.array([0.0, self.length])
        self.layer_of = np.array([PATH_VERTEX, PATH_VERTEX])
        self.P = ((p1 - p0) / self.length)[None]
        self.Q = p0[None]
        self.tol = _CUT_MERGE_REL * max(1.0, self.length)
        self.states: list = []

    def midpoints(self) -> np.ndarray:
        mids = (self.cuts[:-1] + self.cuts[1:]) / 2.0
        return self.Q + self.P * mids[:, None]

    def refine(self, li: int, num: np.ndarray, den: np.ndarray) -> None:
        """Cut at the parameters ``num / den`` (first axis: interval) that lie
        inside their interval by more than ``tol``; ``|den| < 1e-300`` gives
        none. Candidates are taken in ascending order, and one within ``tol``
        of the previous kept cut or of the next cut is dropped. Sub-intervals
        inherit the profile."""
        cuts, tol = self.cuts, self.tol
        shape = (-1,) + (1,) * (num.ndim - 1)
        lo, hi = cuts[:-1].reshape(shape), cuts[1:].reshape(shape)
        r = num / np.where(np.abs(den) < 1e-300, np.nan, den)
        r = np.sort(r[(r > lo + tol) & (r < hi - tol)])
        # In the window a candidate is also farther than tol from both ends of
        # its interval (cuts >= 0; those differences round exactly), and close
        # candidates share an interval: only the previous kept one can clash.
        if r.size > 1 and (r[1:] - r[:-1] <= tol).any():
            keep, last = np.ones(r.size, dtype=bool), r[0]
            for k in range(1, r.size):
                keep[k] = r[k] - last > tol
                last = r[k] if keep[k] else last
            r = r[keep]
        if not r.size:
            return
        both = np.concatenate([cuts, r])
        order = both.argsort(kind="stable")
        self.cuts = both[order]
        self.layer_of = np.concatenate([self.layer_of, np.full(r.size, li)])[order]
        parent = np.searchsorted(cuts, self.cuts[:-1], side="right") - 1
        self.P, self.Q = self.P[parent], self.Q[parent]


def _pointwise(seg: _Segment, li: int, layer: Pointwise) -> None:
    units = layer.units
    if all(f is units[0] for f in units):
        units = units[:1]  # one shared unit: its tables broadcast over the width
    m = max(len(f.breakpoints) for f in units)
    bps = np.array([f.breakpoints + (np.inf,) * (m - len(f.breakpoints)) for f in units])
    lines = np.array([[f.piece_line(i) for i in range(len(f.slopes))]
                      + [(0.0, 0.0)] * (m + 1 - len(f.slopes)) for f in units])
    if m:
        seg.refine(li, bps - seg.Q[..., None], seg.P[..., None])
    # Piece index at the midpoint: the breakpoints below it, plus one sitting
    # on it unless the profile decreases there.
    z = seg.midpoints()[..., None]
    idx = ((bps < z) | ((bps == z) & (seg.P >= 0)[..., None])).sum(axis=2)
    line = lines[np.arange(len(units)), idx]
    seg.P, seg.Q = line[..., 0] * seg.P, line[..., 0] * seg.Q + line[..., 1]


def _pairs(k: int) -> np.ndarray:
    """(2, k*(k-1)/2) index array of all pairs i < j below k."""
    return np.array([(i, j) for j in range(k) for i in range(j)], dtype=int).reshape(-1, 2).T


def _apply_rows(seg: _Segment, S: np.ndarray, c: np.ndarray) -> None:
    """Compose per-interval pieces ``S`` (n, out, width), ``c`` (n, out)."""
    seg.P = (S @ seg.P[..., None])[..., 0]
    seg.Q = (S @ seg.Q[..., None])[..., 0] + c


def _maxout(seg: _Segment, li: int, layer: Maxout) -> None:
    W, o = layer.weights, layer.offsets
    ii, jj = _pairs(layer.rank)
    a = (W @ seg.P[:, None, :, None])[..., 0]
    b = (W @ seg.Q[:, None, :, None])[..., 0] + o
    seg.refine(li, b[..., jj] - b[..., ii], a[..., ii] - a[..., jj])
    # Lexicographic argmax on (value, directional slope).
    vals = np.einsum("ukd,nd->nuk", W, seg.midpoints()) + o
    dirs = np.einsum("ukd,nd->nuk", W, seg.P)
    sel = np.where(vals == vals.max(axis=2, keepdims=True), dirs, -np.inf).argmax(axis=2)
    units = np.arange(W.shape[0])
    _apply_rows(seg, W[units, sel], o[units, sel])


def _groupsort(seg: _Segment, li: int, layer: GroupSort) -> None:
    g, w = layer.group_size, seg.P.shape[1]
    starts = np.arange(0, w, g)[:, None]
    ii, jj = (_pairs(g)[:, None] + starts).reshape(2, -1)
    seg.refine(li, seg.Q[:, jj] - seg.Q[:, ii], seg.P[:, ii] - seg.P[:, jj])
    n = len(seg.P)  # stable ascending sort by (value, directional slope)
    order = np.lexsort((seg.P.reshape(n, -1, g), seg.midpoints().reshape(n, -1, g)), axis=2)
    src = (order + starts).reshape(n, w)
    rows = np.arange(n)[:, None]
    seg.P, seg.Q = seg.P[rows, src], seg.Q[rows, src]


def _grid_locate(u: np.ndarray, du: np.ndarray, m: int, h: float):
    """Array form of ``core._pwlu_locate``: column, clamped coordinate, clamped."""
    low = (u < -1.0) | ((u == -1.0) & (du < 0))
    high = ~low & ((u > 1.0) | ((u == 1.0) & (du > 0)))
    i = np.floor((u + 1.0) / h)
    i = np.where((i * h - 1.0 == u) & (du < 0), i - 1, i)
    i = np.where(low, 0, np.where(high, m - 2, np.clip(i, 0, m - 2)))
    return i.astype(int), np.where(low, -1.0, np.where(high, 1.0, u)), low | high


def _pwlu2d(seg: _Segment, li: int, layer: PWLU2D) -> None:
    m, h, V = layer.grid_m, layer.grid_step, layer.values
    M = np.stack([r.matrix for r in layer.readins])
    off = np.stack([r.offset for r in layer.readins])
    nodes = -1.0 + np.arange(m) * h
    diag = np.arange(-(m - 2), m - 1) * h
    ap = (M @ seg.P[:, None, :, None])[..., 0]
    aq = (M @ seg.Q[:, None, :, None])[..., 0] + off
    # Crossings of u and v with the grid lines and of u - v with the diagonals.
    levels = [nodes - aq[..., :1], nodes - aq[..., 1:], diag - (aq[..., :1] - aq[..., 1:])]
    slopes = np.stack([ap[..., 0], ap[..., 1], ap[..., 0] - ap[..., 1]], axis=2)
    seg.refine(li, np.concatenate(levels, axis=2), np.repeat(slopes, [m, m, 2 * m - 3], axis=2))
    uv = (M @ seg.midpoints()[:, None, :, None])[..., 0] + off
    duv = (M @ seg.P[:, None, :, None])[..., 0]
    i, uc, ucl = _grid_locate(uv[..., 0], duv[..., 0], m, h)
    j, vc, vcl = _grid_locate(uv[..., 1], duv[..., 1], m, h)
    s, s0 = uc - vc, nodes[i] - nodes[j]
    lower = np.where((s == s0) & ~(ucl & vcl), (duv[..., 0] - duv[..., 1]) > 0, s >= s0)
    k = np.arange(V.shape[0])
    v00, v01, v10, v11 = V[k, i, j], V[k, i, j + 1], V[k, i + 1, j], V[k, i + 1, j + 1]
    a = np.where(lower, (v10 - v00) / h, (v11 - v01) / h)
    b = np.where(lower, (v11 - v10) / h, (v01 - v00) / h)
    c = v00 - a * nodes[i] - b * nodes[j]
    # Value a*u + b*v + c, a clamped coordinate entering as a constant.
    row = np.where(ucl[..., None], 0.0, 0.0 + a[..., None] * M[:, 0])
    row = np.where(vcl[..., None], row, row + b[..., None] * M[:, 1])
    c = np.where(ucl, c + a * uc, c + a * off[:, 0])
    c = np.where(vcl, c + b * vc, c + b * off[:, 1])
    _apply_rows(seg, row, c)


def _affine(seg: _Segment, li: int, layer: Affine) -> None:
    M = layer.map.matrix.T
    seg.P, seg.Q = seg.P @ M, seg.Q @ M + layer.map.offset


_LAYER_STEPS = {Affine: _affine, Pointwise: _pointwise, Maxout: _maxout,
                GroupSort: _groupsort, PWLU2D: _pwlu2d}


def _propagate(net: NetworkSpec, path: PolygonalPath) -> list[_Segment]:
    segs = [_Segment(p0, p1) for p0, p1 in zip(path.vertices[:-1], path.vertices[1:])]
    for seg in segs:
        for li, layer in enumerate(net.layers):
            _LAYER_STEPS[type(layer)](seg, li, layer)
            seg.states.append((seg.cuts, seg.P, seg.Q))
    return segs


def _piece_changes(cuts: np.ndarray, P: np.ndarray, Q: np.ndarray,
                   tol: float) -> np.ndarray:
    """Indices i of interior cuts where the restricted piece differs between
    intervals i and i+1: the slope vectors, or the values at the cut, differ
    by more than ``tol`` times the larger of them and 1."""
    if len(cuts) < 3:
        return np.zeros(0, dtype=int)
    s = cuts[1:-1, None]
    sides = np.concatenate([P[:-1], P[1:], Q[:-1] + P[:-1] * s, Q[1:] + P[1:] * s]
                           ).reshape(4, len(s), -1)
    size = np.maximum.reduce(np.abs(sides), axis=2, initial=0.0)
    gap = np.maximum.reduce(np.abs(sides[0::2] - sides[1::2]), axis=2, initial=0.0)
    changed = gap > tol * np.maximum(1.0, np.maximum(size[0::2], size[1::2]))
    return (changed[0] | changed[1]).nonzero()[0]


def _knots_after(segs: list, li: int, tol: float) -> tuple[list, list]:
    """Knots of the network truncated after layer ``li``: the interior cut
    indices of each segment, and per path vertex whether the slope changes
    there (both slopes are per unit arc length)."""
    inner = [_piece_changes(*seg.states[li], tol) + 1 for seg in segs]
    bends = []
    for left, right in zip(segs, segs[1:]):
        pl, pr = left.states[li][1][-1], right.states[li][1][0]
        scale = max(1.0, np.abs(pl).max(initial=0.0), np.abs(pr).max(initial=0.0))
        bends.append(bool(np.abs(pl - pr).max(initial=0.0) > tol * scale))
    return inner, bends


def count_knots(net: NetworkSpec, path: PolygonalPath, tol: float = KNOT_REL_TOL,
                prefixes: bool = False) -> KnotReport:
    """Exact knots of the network restricted to the path.

    Knots strictly inside a segment come from layer switching; knots at path
    vertices (direction changes) are flagged ``at_vertex`` and attributed to
    the earlier segment with layer ``PATH_VERTEX``. ``prefixes=True``
    additionally reports the knot count of every depth-truncated network.
    """
    if path.dim != net.input_dim:
        raise ValidationError("path dimension must match the network input")
    segs = _propagate(net, path)
    offsets = [0.0, *accumulate(seg.length for seg in segs)]
    inner, bends = _knots_after(segs, -1, tol)
    knots = []  # (parameter, layer, at_vertex), stably sorted by parameter
    for off, seg, hit in zip(offsets, segs, inner):
        knots += zip((off + seg.cuts[hit]).tolist(), seg.layer_of[hit].tolist(), repeat(False))
    knots += [(off, PATH_VERTEX, True) for off, bend in zip(offsets[1:], bends) if bend]
    knots.sort(key=lambda k: k[0])
    prefix_counts = None
    if prefixes:
        prefix_counts = tuple(sum(map(len, hits)) + sum(turns) for hits, turns in
                              (_knots_after(segs, li, tol) for li in range(len(net.layers))))
    kt, length = len(knots), path.length
    return KnotReport(*(tuple(k[i] for k in knots) for i in range(3)), kt, length,
                      kt / length, prefix_counts)


# ---------------------------------------------------------------------------
# Image paths and lengths
# ---------------------------------------------------------------------------

def image_path(net: NetworkSpec, path: PolygonalPath) -> PolygonalPath:
    """The image polyline: the network maps each segment to a polyline with
    vertices at the restriction's cut parameters."""
    verts = []
    for seg in _propagate(net, path):
        cuts, P, Q = seg.states[-1]
        verts += [Q + P * cuts[:-1, None], Q[-1:] + P[-1:] * cuts[-1]]
    verts = np.concatenate(verts)
    out = verts[np.concatenate([[True], np.any(verts[1:] != verts[:-1], axis=1)])]
    if len(out) < 2:
        raise ValidationError("image path degenerates to a point")
    return PolygonalPath(out)


def image_length(net: NetworkSpec, path: PolygonalPath) -> float:
    """Arc length of the image polyline (0 when the image is a point)."""
    total = 0.0
    for seg in _propagate(net, path):
        cuts, P, _ = seg.states[-1]
        total += float(np.sum(np.linalg.norm(P, axis=1) * np.diff(cuts)))
    return total


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
