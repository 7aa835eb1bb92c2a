"""Switching rows and piece selection of every layer type, on arrays.

A non-affine layer changes its affine piece only on finitely many
hyperplanes of its input. Each layer type defines them here once, for a
batch of affine profiles ``z = A x + b`` of the layer input, ``A`` of shape
(n, width, d) and ``b`` (n, width):

- ``rows(A, b)``, of non-affine layers only (an affine layer never
  switches): the switching hyperplanes ``N x + c = 0`` pulled back through
  every profile, ``N`` (n, R, d) and ``c`` (n, R), in the order region
  enumeration splits by: per unit, then per breakpoint (pointwise;
  ``c = -inf`` pads units with fewer breakpoints); the pairs i < j of each
  unit's candidates (maxout) or of each group (group-sort); per unit, the u
  and v grid lines interleaved, then the diagonals (PWLU2D).
- ``compose(A, b, Z, dZ)``: the profiles composed with the piece active at
  the points ``Z`` (n, width), a tie going the way the directions ``dZ``
  point, as in the reference steps of ``core`` (zero directions give their
  two-sided choice). Pointwise and sorting pieces apply elementwise: as
  products with diagonal or permutation matrices they would cost more.

Region enumeration uses d = the input dimension and one profile per cell;
the knot engine d = 1 and one profile per interval, cutting at ``-c / N``.
Each definition works in the arithmetic of its arrays: floats, or the
Fraction object arrays of the rational engine (``exact_cell_count``). So
its literals are ints, which leave floats bit for bit as they are, where a
float literal would turn a Fraction it meets into a float.
Raw layers are tuples ``(Affine, M, b)``, ``(Pointwise, units)``,
``(Maxout, W, o)``, ``(GroupSort, g)`` and ``(PWLU2D, V, M, off)`` (values,
stacked read-in matrices and offsets). ``stack`` stacks those of a batch of
nets with one layer structure, each array with a leading axis of 1 (one net
for every profile) or of the net count (net t for profile t); the Monte
Carlo drivers draw their stacked layers straight into such arrays.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec, Pointwise, PWLU2D,
                   pwlu_unit_pieces)

_RAW = {Affine: lambda l: (l.map.matrix, l.map.offset),
        Pointwise: lambda l: (l.units,),
        Maxout: lambda l: (l.weights, l.offsets),
        GroupSort: lambda l: (l.group_size,),
        PWLU2D: lambda l: (l.values, np.stack([r.matrix for r in l.readins]),
                           np.stack([r.offset for r in l.readins]))}
LAYER_OF_RAW = {Affine: lambda M, b: Affine(AffineMap(M, b)), Pointwise: Pointwise,
                Maxout: lambda W, o: Maxout(W.shape[1], W, o), GroupSort: GroupSort,
                PWLU2D: lambda V, M, off: PWLU2D(V.shape[-1], V, tuple(map(AffineMap, M, off)))}


def raw_layers(net: NetworkSpec) -> list[tuple]:
    return [(type(layer), *_RAW[type(layer)](layer)) for layer in net.layers]


def _pairs(k: int) -> np.ndarray:
    """(2, k*(k-1)/2) index array of the pairs i < j below k, by i, then j."""
    return np.stack(np.triu_indices(k, 1))


def _matmul(S, A, b, c):
    """``(S A, S b + c)`` for stacked matrices ``S``."""
    return S @ A, (S @ b[..., None])[..., 0] + c


class _Layer:
    """The stacked parameters of one layer of a batch of nets. ``guard``,
    where set, gives per row the unit whose clamp box bounds where that row
    switches anything, or -1."""

    guard = None

    def __init__(self, *params):
        self.params = params

    @classmethod
    def stack(cls, layers: Sequence[tuple]) -> "_Layer":
        """From this layer's raw parameters in every net of the batch (a
        parameter other than an array is the same in all of them)."""
        return cls(*(np.stack(p) if isinstance(p[0], np.ndarray) else p[0] for p in zip(*layers)))

    def per(self, owner: np.ndarray) -> "_Layer":
        """This layer for profiles of the nets ``owner``: the rows of each
        parameter array, or the array itself when one net is shared."""
        return type(self)(*(p[owner] if isinstance(p, np.ndarray) and len(p) > 1 else p
                            for p in self.params))


class _Affine(_Layer):
    kind = Affine

    def compose(self, A, b, Z, dZ):
        M, o = self.params
        return _matmul(M, A, b, o)


def unit_tables(units: Sequence, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables of one net's pointwise units (``ScalarCPWL``) with at most
    ``m`` breakpoints: breakpoints, inf-padded, (units, m), and piece lines
    ``(slope, intercept)``, zero-padded, (units, m + 1, 2)."""
    bps = [f.breakpoints + (np.inf,) * (m - len(f.breakpoints)) for f in units]
    lines = [[f.piece_line(i) for i in range(len(f.slopes))]
             + [(0.0, 0.0)] * (m + 1 - len(f.slopes)) for f in units]
    return np.array(bps), np.array(lines)


class _Pointwise(_Layer):
    """The ``unit_tables`` of every net, (nets, units, m) and (nets, units,
    m + 1, 2), or of one unit that every unit of every net shares, (1, 1, m)
    and (1, 1, m + 1, 2), broadcast."""

    kind = Pointwise

    @classmethod
    def stack(cls, layers):
        layers = [units for units, in layers]
        m = max(len(f.breakpoints) for units in layers for f in units)
        bps, lines = zip(*(unit_tables(units, m) for units in layers))
        return cls(np.array(bps), np.array(lines))

    def rows(self, A, b):
        bps = self.params[0]
        return np.repeat(A, bps.shape[-1], axis=1), (b[..., None] - bps).reshape(len(b), -1)

    def compose(self, A, b, Z, dZ):
        # Piece index: the breakpoints below z, plus one sitting on it unless
        # the profile decreases there.
        bps, lines = self.params
        idx = ((bps < Z[..., None]) | ((bps == Z[..., None]) & (dZ >= 0)[..., None])).sum(axis=2)
        line = lines[np.arange(len(lines))[:, None], np.arange(lines.shape[1]), idx]
        return line[..., :1] * A, line[..., 0] * b + line[..., 1]


class _Maxout(_Layer):
    kind = Maxout

    def candidates(self, A, b):
        """Every unit's candidates pulled back, (n, units, rank, d) and
        (n, units, rank)."""
        return _matmul(self.params[0], A[:, None], b[:, None], self.params[1])

    def rows(self, A, b):
        R, s = self.candidates(A, b)
        ii, jj = _pairs(R.shape[2])
        return ((R[:, :, ii] - R[:, :, jj]).reshape(len(R), -1, R.shape[3]),
                (s[..., ii] - s[..., jj]).reshape(len(R), -1))

    def compose(self, A, b, Z, dZ):
        W, o = self.params
        vals = np.einsum("...ukd,...d->...uk", W, Z) + o
        dirs = np.einsum("...ukd,...d->...uk", W, dZ)
        # Lexicographic argmax on (value, directional slope).
        sel = np.where(vals == vals.max(axis=2, keepdims=True), dirs, -np.inf).argmax(axis=2)
        rows, units = np.arange(len(W))[:, None], np.arange(W.shape[1])
        return _matmul(W[rows, units, sel], A, b, o[rows, units, sel])


class _GroupSort(_Layer):
    kind = GroupSort

    def rows(self, A, b):
        g = self.params[0]
        ii, jj = (_pairs(g)[:, None] + np.arange(0, A.shape[1], g)[:, None]).reshape(2, -1)
        return A[:, ii] - A[:, jj], b[:, ii] - b[:, jj]

    def compose(self, A, b, Z, dZ):
        # Stable ascending sort by (value, directional slope).
        g, (n, w) = self.params[0], Z.shape
        order = np.lexsort((dZ.reshape(n, -1, g), Z.reshape(n, -1, g)), axis=2)
        src, rows = (order + np.arange(0, w, g)[:, None]).reshape(n, w), np.arange(n)[:, None]
        return A[rows, src], b[rows, src]


def _grid_locate(u: np.ndarray, du: np.ndarray, m: int, h):
    """Column, clamped coordinate and clamp flag, as ``core._grid_locate``
    (the float reference this is tested against) gives them."""
    low = (u < -1) | ((u == -1) & (du < 0))
    high = ~low & ((u > 1) | ((u == 1) & (du > 0)))
    i = np.floor((u + 1) / h)
    i = np.where((i * h - 1 == u) & (du < 0), i - 1, i)
    i = np.where(low, 0, np.where(high, m - 2, np.clip(i, 0, m - 2)))
    return i.astype(int), np.where(low, -1, np.where(high, 1, u)), low | high


class _PWLU2D(_Layer):
    kind = PWLU2D

    def __init__(self, V, M, off):
        super().__init__(V, M, off)
        m, units = V.shape[-1], V.shape[1]
        # The grid in the arithmetic of the values: exact on Fractions.
        self.h = Fraction(2, m - 1) if V.dtype == object else 2.0 / (m - 1)
        self.nodes = -1 + np.arange(m) * self.h
        # Diagonals switch only inside their unit's clamp box.
        self.guard = np.where(np.arange(4 * m - 3) < 2 * m, -1, np.arange(units)[:, None]).ravel()

    def rows(self, A, b):
        m, h = len(self.nodes), self.h
        R, s = _matmul(self.params[1], A[:, None], b[:, None], self.params[2])
        n, units, _, d = R.shape
        N = np.concatenate([np.tile(R, (1, 1, m, 1)),
                            np.repeat(R[:, :, :1] - R[:, :, 1:], 2 * m - 3, axis=2)], axis=2)
        c = np.concatenate([(s[:, :, None] - self.nodes[:, None]).reshape(n, units, 2 * m),
                            s[..., :1] - s[..., 1:] - np.arange(2 - m, m - 1) * h], axis=2)
        return N.reshape(n, -1, d), c.reshape(n, -1)

    def inside(self, Z):
        """(n, units): whether each unit reads ``Z`` strictly inside its clamp box."""
        _, M, off = self.params
        return (np.abs((M @ Z[:, None, :, None])[..., 0] + off) < 1).all(axis=2)

    def compose(self, A, b, Z, dZ):
        (V, M, off), h, nodes = self.params, self.h, self.nodes
        uv, duv = (M @ Z[:, None, :, None])[..., 0] + off, (M @ dZ[:, None, :, None])[..., 0]
        i, uc, ucl = _grid_locate(uv[..., 0], duv[..., 0], len(nodes), h)
        j, vc, vcl = _grid_locate(uv[..., 1], duv[..., 1], len(nodes), h)
        s, s0 = uc - vc, nodes[i] - nodes[j]
        lower = np.where((s == s0) & ~(ucl & vcl), (duv[..., 0] - duv[..., 1]) > 0, s >= s0)
        rows, k = np.arange(len(V))[:, None], np.arange(V.shape[1])
        v00, v01 = V[rows, k, i, j], V[rows, k, i, j + 1]
        v10, v11 = V[rows, k, i + 1, j], V[rows, k, i + 1, j + 1]
        p = np.where(lower, (v10 - v00) / h, (v11 - v01) / h)
        q = np.where(lower, (v11 - v10) / h, (v01 - v00) / h)
        c = v00 - p * nodes[i] - q * nodes[j]
        # Value p*u + q*v + c, a clamped coordinate entering as a constant.
        row = np.where(ucl[..., None], 0, 0 + p[..., None] * M[..., 0, :])
        row = np.where(vcl[..., None], row, row + q[..., None] * M[..., 1, :])
        c = np.where(ucl, c + p * uc, c + p * off[..., 0])
        return _matmul(row, A, b, np.where(vcl, c + q * vc, c + q * off[..., 1]))


_KINDS = {cls.kind: cls for cls in (_Affine, _Pointwise, _Maxout, _GroupSort, _PWLU2D)}


_UNIT_PIECES = {Affine: lambda w, M, b: [],
                Pointwise: lambda w, units: [f.region_count for f in units],
                Maxout: lambda w, W, o: [W.shape[1]] * w,
                GroupSort: lambda w, g: [math.factorial(g)] * (w // g),
                PWLU2D: lambda w, V, M, off: [pwlu_unit_pieces(V.shape[-1])] * w}


def unit_pieces(net: NetworkSpec) -> list[list]:
    """Per layer, the number of affine pieces of each output unit (none for
    an affine layer)."""
    return [_UNIT_PIECES[kind](w, *params) for (kind, *params), w in zip(raw_layers(net), net.dims[1:])]


def stack(nets: Sequence[Sequence[tuple]]) -> list[_Layer]:
    """The layers of a batch of nets with one layer structure, given as raw
    layers."""
    return [_KINDS[kind].stack([net[l][1:] for net in nets]) for l, (kind, *_) in enumerate(nets[0])]
