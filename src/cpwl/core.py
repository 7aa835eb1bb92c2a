"""Data types and exact evaluation for continuous piecewise-linear networks.

A network is a chain of layers, each one of: an affine map, a bank of 1D
piecewise-linear units applied coordinatewise, a maxout layer, a group-sort
layer, or a bank of 2D piecewise-linear units on a triangulated grid.
Every layer output is an exact continuous piecewise-linear function of the
network input, so local behaviour is always a single affine piece ``A x + b``.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

# Relative tolerance below which breakpoints merge / slopes are considered equal.
MERGE_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when a network, layer, or function description is malformed."""


@dataclass(frozen=True)
class ScalarCPWL:
    """A continuous piecewise-linear function on the real line.

    Canonical form: sorted breakpoints ``b_1 < ... < b_m``, one slope per
    piece (``m + 1`` slopes, adjacent slopes distinct), and ``anchor_value`` =
    the function value at ``b_1`` (at 0 when there is no breakpoint).
    Continuity is structural: piece values are chained from the anchor.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    anchor_value: float = 0.0
    _bp_values: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        sl = tuple(float(s) for s in self.slopes)
        if len(sl) != len(bp) + 1:
            raise ValidationError(
                f"need {len(bp) + 1} slopes for {len(bp)} breakpoints, got {len(sl)}")
        if any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
            raise ValidationError("breakpoints must be strictly increasing")
        if not all(math.isfinite(v) for v in bp + sl + (self.anchor_value,)):
            raise ValidationError("non-finite entry in piecewise-linear data")
        # Canonicalize: merge breakpoints with equal adjacent slopes or
        # near-coincident positions.
        bp, sl = _canonical_pieces(bp, sl)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "anchor_value", float(self.anchor_value))
        # Value table at breakpoints (empty when affine).
        vals = []
        if bp:
            v = self.anchor_value
            vals.append(v)
            for i in range(1, len(bp)):
                v += sl[i] * (bp[i] - bp[i - 1])
                vals.append(v)
        object.__setattr__(self, "_bp_values", tuple(vals))

    @property
    def region_count(self) -> int:
        return len(self.slopes)

    def piece_index(self, t: float, side: int = 0) -> int:
        """Index of the affine piece active at ``t``.

        At a breakpoint the right piece wins for ``side >= 0``, the left piece
        for ``side < 0``.
        """
        if side >= 0:
            return bisect.bisect_right(self.breakpoints, t)
        return bisect.bisect_left(self.breakpoints, t)

    def piece_line(self, index: int) -> tuple[float, float]:
        """Slope and intercept of piece ``index`` as a global line ``s*t + c``."""
        s = self.slopes[index]
        if not self.breakpoints:
            return s, self.anchor_value
        j = 0 if index == 0 else index - 1
        return s, self._bp_values[j] - s * self.breakpoints[j]

    def __call__(self, t: float) -> float:
        return eval_scalar(self, t)


def _canonical_pieces(bp: tuple[float, ...], sl: tuple[float, ...]
                      ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Drop breakpoints whose two sides have (near-)equal slopes, merge
    near-coincident breakpoints (keeping the outer slopes)."""
    bp_l, sl_l = list(bp), list(sl)
    changed = True
    while changed:
        changed = False
        for i in range(len(bp_l)):
            scale = max(1.0, abs(sl_l[i]), abs(sl_l[i + 1]))
            if abs(sl_l[i + 1] - sl_l[i]) <= MERGE_TOL * scale:
                del bp_l[i]
                del sl_l[i + 1]
                changed = True
                break
            if i + 1 < len(bp_l):
                gap_scale = max(1.0, abs(bp_l[i]), abs(bp_l[i + 1]))
                if bp_l[i + 1] - bp_l[i] <= MERGE_TOL * gap_scale:
                    # Collapse the sliver piece between two near-equal breakpoints.
                    del bp_l[i + 1]
                    del sl_l[i + 1]
                    changed = True
                    break
    return tuple(bp_l), tuple(sl_l)


def eval_scalar(f: ScalarCPWL, t: float) -> float:
    """Exact value of ``f`` at ``t`` (right-continuous piece selection)."""
    if not f.breakpoints:
        return f.anchor_value + f.slopes[0] * t
    i = bisect.bisect_right(f.breakpoints, t)
    j = 0 if i == 0 else i - 1
    return f._bp_values[j] + f.slopes[i] * (t - f.breakpoints[j])


def sum_scalar(f: ScalarCPWL, g: ScalarCPWL) -> ScalarCPWL:
    """Pointwise sum, canonical. Breakpoints are merged sorted unions;
    exact cancellation of slope jumps removes the breakpoint."""
    bp = sorted(set(f.breakpoints) | set(g.breakpoints))
    slopes = []
    for i in range(len(bp) + 1):
        if not bp:
            t_mid = 0.0
        elif i == 0:
            t_mid = bp[0] - 1.0
        elif i == len(bp):
            t_mid = bp[-1] + 1.0
        else:
            t_mid = 0.5 * (bp[i - 1] + bp[i])
        slopes.append(f.slopes[f.piece_index(t_mid)] + g.slopes[g.piece_index(t_mid)])
    if bp:
        anchor = eval_scalar(f, bp[0]) + eval_scalar(g, bp[0])
    else:
        anchor = eval_scalar(f, 0.0) + eval_scalar(g, 0.0)
    return ScalarCPWL(tuple(bp), tuple(slopes), anchor)


def compose_scalar(f: ScalarCPWL, g: ScalarCPWL) -> ScalarCPWL:
    """Composition ``t -> f(g(t))``, canonical.

    Breakpoints: those of ``g`` plus every solution of ``g(t) = beta`` for
    breakpoints ``beta`` of ``f`` (finitely many per piece of ``g``).
    """
    cuts = set(g.breakpoints)
    g_nodes = list(g.breakpoints)
    # Piece i of g spans (lo_i, hi_i).
    for i, s in enumerate(g.slopes):
        if s == 0.0:
            continue
        lo = -math.inf if i == 0 else g_nodes[i - 1]
        hi = math.inf if i == len(g_nodes) else g_nodes[i]
        _, c = g.piece_line(i)
        for beta in f.breakpoints:
            t = (beta - c) / s
            if lo < t < hi:
                cuts.add(t)
    bp = sorted(cuts)
    # Drop near-coincident cut points before slope assembly.
    merged = []
    for t in bp:
        if merged and t - merged[-1] <= MERGE_TOL * max(1.0, abs(t), abs(merged[-1])):
            continue
        merged.append(t)
    bp = merged
    slopes = []
    for i in range(len(bp) + 1):
        if not bp:
            t_mid = 0.0
        elif i == 0:
            t_mid = bp[0] - 1.0
        elif i == len(bp):
            t_mid = bp[-1] + 1.0
        else:
            t_mid = 0.5 * (bp[i - 1] + bp[i])
        sg = g.slopes[g.piece_index(t_mid)]
        sf = f.slopes[f.piece_index(eval_scalar(g, t_mid))]
        slopes.append(sf * sg)
    anchor = eval_scalar(f, eval_scalar(g, bp[0])) if bp else eval_scalar(f, eval_scalar(g, 0.0))
    return ScalarCPWL(tuple(bp), tuple(slopes), anchor)


def relu_unit() -> ScalarCPWL:
    return ScalarCPWL((0.0,), (0.0, 1.0), 0.0)


def abs_unit() -> ScalarCPWL:
    return ScalarCPWL((0.0,), (-1.0, 1.0), 0.0)


def leaky_relu_unit(negative_slope: float = 0.01) -> ScalarCPWL:
    return ScalarCPWL((0.0,), (negative_slope, 1.0), 0.0)


def identity_unit() -> ScalarCPWL:
    return ScalarCPWL((), (1.0,), 0.0)


def zero_unit() -> ScalarCPWL:
    return ScalarCPWL((), (0.0,), 0.0)


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit as ``np.linalg.norm`` of the
    row alone gives it (a dot product; ``norm(axis=1)`` rounds differently)
    wherever the row's square is finite. A finite row whose square overflows
    gets s ||v / s||, s its largest |entry|, which is inf only past the
    largest float, as is an infinite row's norm."""
    with np.errstate(over="ignore"):
        sq = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
        norms = np.sqrt(sq)
        over = np.flatnonzero(np.isinf(sq))
        if len(over):
            s = np.abs(v[over]).max(axis=1)
            over, s = over[s < np.inf], s[s < np.inf]
            norms[over] = s * row_norms(v[over] / s[:, None])
    return norms


def vector_norm(a: np.ndarray) -> float:
    """``row_norms`` of the one row ``a``. ``np.vdot`` gives the bits of
    ``a.dot(a)``, but does not warn when the square overflows."""
    sq = np.vdot(a, a)
    return math.sqrt(sq) if sq < math.inf else float(row_norms(a[None])[0])


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AffineMap:
    """Affine map ``x -> matrix @ x + offset``."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = _freeze(self.matrix)
        o = _freeze(self.offset)
        if m.ndim != 2 or o.ndim != 1 or o.shape[0] != m.shape[0]:
            raise ValidationError(f"affine shape mismatch: {m.shape} vs {o.shape}")
        if not (np.isfinite(m).all() and np.isfinite(o).all()):
            raise ValidationError("non-finite affine data")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", o)

    @classmethod
    def view(cls, matrix: np.ndarray, offset: np.ndarray) -> "AffineMap":
        """The map on ``matrix`` and ``offset`` as they are, without a copy
        or a check: read-only finite float arrays of matching shapes, as the
        caller has made sure."""
        piece = object.__new__(cls)
        object.__setattr__(piece, "matrix", matrix)
        object.__setattr__(piece, "offset", offset)
        return piece

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offset


@dataclass(frozen=True)
class Affine:
    """Affine layer."""

    map: AffineMap

    def out_dim(self, in_dim: int) -> int:
        if self.map.in_dim != in_dim:
            raise ValidationError(f"affine expects input dim {self.map.in_dim}, got {in_dim}")
        return self.map.out_dim


@dataclass(frozen=True)
class Pointwise:
    """One scalar piecewise-linear unit per coordinate."""

    units: tuple[ScalarCPWL, ...]

    def out_dim(self, in_dim: int) -> int:
        if len(self.units) != in_dim:
            raise ValidationError(f"pointwise layer has {len(self.units)} units, input dim {in_dim}")
        return in_dim


@dataclass(frozen=True)
class Maxout:
    """Each output unit is the max of ``rank`` affine functions of the layer input."""

    rank: int
    weights: np.ndarray  # (units, rank, in_dim)
    offsets: np.ndarray  # (units, rank)

    def __post_init__(self):
        w = _freeze(self.weights)
        o = _freeze(self.offsets)
        if w.ndim != 3 or o.ndim != 2 or w.shape[:2] != o.shape or w.shape[1] != self.rank:
            raise ValidationError(f"maxout shape mismatch: {w.shape} vs {o.shape}, rank {self.rank}")
        if self.rank < 1:
            raise ValidationError("maxout rank must be >= 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offsets", o)

    def out_dim(self, in_dim: int) -> int:
        if self.weights.shape[2] != in_dim:
            raise ValidationError(f"maxout expects input dim {self.weights.shape[2]}, got {in_dim}")
        return self.weights.shape[0]


@dataclass(frozen=True)
class GroupSort:
    """Sort each consecutive block of ``group_size`` coordinates ascending."""

    group_size: int

    def __post_init__(self):
        if self.group_size < 1:
            raise ValidationError("group size must be >= 1")

    def out_dim(self, in_dim: int) -> int:
        if in_dim % self.group_size:
            raise ValidationError(f"input dim {in_dim} not divisible by group size {self.group_size}")
        return in_dim


@dataclass(frozen=True)
class PWLU2D:
    """Bank of 2D piecewise-linear units on a triangulated square grid.

    Each unit reads two coordinates ``(u, v) = readin(z)`` of the layer input,
    clamps them to ``[-1, 1]``, and interpolates control values on the uniform
    ``grid_m x grid_m`` grid whose cells are split by the diagonal
    ``u - v = const`` into two triangles. Outside the grid the inputs clamp, so
    the extension is continuous and affine on each boundary strip.
    ``values[k][i][j]`` is unit k's value at grid node ``(g_i, g_j)`` with
    ``g_i = -1 + 2 i / (grid_m - 1)`` (first index along u, second along v).
    """

    grid_m: int
    values: np.ndarray            # (units, M, M)
    readins: tuple[AffineMap, ...]  # each maps layer input -> (u, v)

    def __post_init__(self):
        v = _freeze(self.values)
        if self.grid_m < 2:
            raise ValidationError("grid_m must be >= 2")
        if v.ndim != 3 or v.shape[1] != self.grid_m or v.shape[2] != self.grid_m:
            raise ValidationError(f"values shape {v.shape} does not match grid_m {self.grid_m}")
        if v.shape[0] != len(self.readins):
            raise ValidationError("one readin map per unit required")
        for r in self.readins:
            if r.out_dim != 2:
                raise ValidationError("readin must produce 2 coordinates")
        object.__setattr__(self, "values", v)

    @property
    def grid_step(self) -> float:
        return 2.0 / (self.grid_m - 1)

    def grid_node(self, i: int) -> float:
        return -1.0 + i * self.grid_step

    def out_dim(self, in_dim: int) -> int:
        for r in self.readins:
            if r.in_dim != in_dim:
                raise ValidationError(f"readin expects input dim {r.in_dim}, got {in_dim}")
        return self.values.shape[0]

    def cell_piece(self, col: int, row: int, lower: bool, unit: int) -> tuple[float, float, float]:
        """Affine coefficients ``(a, b, c)`` with value ``a*u + b*v + c`` on the
        chosen triangle of grid cell (col, row); ``lower`` means the triangle
        containing the corner ``(g_{col+1}, g_row)`` (side ``u - v >= g_col - g_row``)."""
        V = self.values[unit]
        h = self.grid_step
        i, j = col, row
        if lower:
            a = (V[i + 1, j] - V[i, j]) / h
            b = (V[i + 1, j + 1] - V[i + 1, j]) / h
        else:
            a = (V[i + 1, j + 1] - V[i, j + 1]) / h
            b = (V[i, j + 1] - V[i, j]) / h
        c = V[i, j] - a * self.grid_node(i) - b * self.grid_node(j)
        return a, b, c


Layer = Union[Affine, Pointwise, Maxout, GroupSort, PWLU2D]


@dataclass(frozen=True)
class NetworkSpec:
    """A chain of layers with validated dimension flow."""

    input_dim: int
    layers: tuple[Layer, ...]
    metadata: str = ""

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValidationError("input_dim must be >= 1")
        object.__setattr__(self, "layers", tuple(self.layers))
        d = self.input_dim
        dims = [d]
        for k, layer in enumerate(self.layers):
            try:
                d = layer.out_dim(d)
            except ValidationError as e:
                raise ValidationError(f"layer {k}: {e}") from None
            dims.append(d)
        object.__setattr__(self, "_dims", tuple(dims))

    @property
    def dims(self) -> tuple[int, ...]:
        """Dimension after the input and after each layer."""
        return self._dims  # type: ignore[attr-defined]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]


# ---------------------------------------------------------------------------
# Reference evaluation: one batched step per layer type.
#
# A step takes the points ``Z`` (n, width) of the layer input, the
# derivatives ``dZ`` of ``Z`` along a query direction, and the profiles
# ``(A, b)`` with ``Z = A x + b`` near each point; it returns the layer values
# and the profiles composed with the piece active at each point. A tie goes
# the way ``dZ`` points; a zero direction gives the two-sided choice: the
# right piece of a scalar unit, the first argmax candidate, a stable ascending
# sort and the upper grid triangle. Pointwise and sorting pieces apply
# elementwise. The exact engines (``switching``) are tested against these
# steps, so they share no code with them.
# ---------------------------------------------------------------------------

def _affine_step(layer: Affine, Z, dZ, A, b):
    M, o = layer.map.matrix, layer.map.offset
    return Z @ M.T + o, M @ A, b @ M.T + o


def _pointwise_step(layer: Pointwise, Z, dZ, A, b):
    # Per unit, inf-padded breakpoints, the values ``eval_scalar`` chains from
    # (the anchor at 0 for a unit without breakpoints) and the piece lines.
    fs, units = layer.units, np.arange(len(layer.units))
    m = max(1, max((len(f.breakpoints) for f in fs), default=0))

    def table(rows, fill, k):
        return np.array([list(r) + [fill] * (k - len(r)) for r in rows])
    bps = table((f.breakpoints for f in fs), np.inf, m)
    knots = np.where(bps < np.inf, bps, 0.0)
    bp_values = table((f._bp_values or (f.anchor_value,) for f in fs), 0.0, m)
    lines = table(([f.piece_line(i) for i in range(len(f.slopes))] for f in fs), (0.0, 0.0), m + 1)
    # The value from the right piece, as eval_scalar takes it; the profile
    # from the left one on a breakpoint the profile decreases through.
    right = (bps <= Z[..., None]).sum(axis=2)
    idx = right - ((bps == Z[..., None]) & (dZ < 0)[..., None]).sum(axis=2)
    j = np.maximum(right - 1, 0)
    values = bp_values[units, j] + lines[units, right, 0] * (Z - knots[units, j])
    s, c = lines[units, idx, 0], lines[units, idx, 1]
    return values, s[..., None] * A, s * b + c


def _maxout_step(layer: Maxout, Z, dZ, A, b):
    W, o = layer.weights, layer.offsets
    vals = np.einsum("ukd,nd->nuk", W, Z) + o
    dirs = np.einsum("ukd,nd->nuk", W, dZ)
    # Lexicographic argmax on (value, directional slope).
    top = vals.max(axis=2)
    sel = np.where(vals == top[..., None], dirs, -np.inf).argmax(axis=2)
    units = np.arange(W.shape[0])
    S = W[units, sel]
    return top, S @ A, (S @ b[..., None])[..., 0] + o[units, sel]


def _groupsort_step(layer: GroupSort, Z, dZ, A, b):
    # Stable ascending sort by (value, directional slope).
    g, (n, w) = layer.group_size, Z.shape
    order = np.lexsort((dZ.reshape(n, -1, g), Z.reshape(n, -1, g)), axis=2)
    src, rows = (order + np.arange(0, w, g)[:, None]).reshape(n, w), np.arange(n)[:, None]
    return Z[rows, src], A[rows, src], b[rows, src]


def _grid_locate(u, du, m: int, h: float):
    """Grid column along one coordinate, the clamped coordinate, and whether
    it is clamped (the piece then has no term in it)."""
    low = (u < -1.0) | ((u == -1.0) & (du < 0))
    high = ~low & ((u > 1.0) | ((u == 1.0) & (du > 0)))
    i = np.floor((u + 1.0) / h)
    i = np.where((i * h - 1.0 == u) & (du < 0), i - 1, i)  # on a grid node, moving left
    i = np.where(low, 0, np.where(high, m - 2, np.clip(i, 0, m - 2)))
    return i.astype(int), np.where(low, -1.0, np.where(high, 1.0, u)), low | high


def _pwlu2d_step(layer: PWLU2D, Z, dZ, A, b):
    V, m, h = layer.values, layer.grid_m, layer.grid_step
    M = np.stack([r.matrix for r in layer.readins])
    off = np.stack([r.offset for r in layer.readins])
    uv, duv = (M @ Z[:, None, :, None])[..., 0] + off, (M @ dZ[:, None, :, None])[..., 0]
    i, uc, ucl = _grid_locate(uv[..., 0], duv[..., 0], m, h)
    j, vc, vcl = _grid_locate(uv[..., 1], duv[..., 1], m, h)
    nodes = -1.0 + np.arange(m) * h
    # On a diagonal the lower triangle (see ``cell_piece``) only when u - v grows.
    s, s0 = uc - vc, nodes[i] - nodes[j]
    lower = np.where((s == s0) & ~(ucl & vcl), (duv[..., 0] - duv[..., 1]) > 0, s >= s0)
    k = np.arange(V.shape[0])
    v00, v01, v10, v11 = V[k, i, j], V[k, i, j + 1], V[k, i + 1, j], V[k, i + 1, j + 1]
    p = np.where(lower, (v10 - v00) / h, (v11 - v01) / h)
    q = np.where(lower, (v11 - v10) / h, (v01 - v00) / h)
    c = v00 - p * nodes[i] - q * nodes[j]
    # Value p*u + q*v + c, a clamped coordinate entering as a constant.
    S = np.where(ucl[..., None], 0.0, 0.0 + p[..., None] * M[:, 0])
    S = np.where(vcl[..., None], S, S + q[..., None] * M[:, 1])
    c = np.where(ucl, c + p * uc, c + p * off[:, 0])
    c = np.where(vcl, c + q * vc, c + q * off[:, 1])
    return (S @ Z[..., None])[..., 0] + c, S @ A, (S @ b[..., None])[..., 0] + c


_STEPS = {Affine: _affine_step, Pointwise: _pointwise_step, Maxout: _maxout_step,
          GroupSort: _groupsort_step, PWLU2D: _pwlu2d_step}


def _step(layer: Layer, Z, dZ, A, b):
    step = _STEPS.get(type(layer))
    if step is None:
        raise ValidationError(f"unknown layer type {type(layer).__name__}")
    return step(layer, Z, dZ, A, b)


def batch_pieces(net: NetworkSpec, X: np.ndarray, side: Optional[np.ndarray] = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values and active affine pieces ``(Z, A, b)`` of the network at the
    points ``X`` (n, d_in): ``Z`` (n, d_out), ``A`` (n, d_out, d_in) and ``b``
    (n, d_out), with ``net(x) = A[i] @ x + b[i]`` for ``x`` near ``X[i]``.

    ``side`` (optional, one direction (d_in,) or one per point (n, d_in))
    selects the one-sided piece active at ``X[i] + eps * side`` for small
    ``eps > 0``; without it, or where it is zero, ties resolve to the
    upper/right piece.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValidationError(f"points of shape {X.shape} for input dim {net.input_dim}")
    n, d = X.shape
    U = np.zeros((n, d)) if side is None else np.broadcast_to(np.asarray(side, dtype=float), (n, d))
    nrm = row_norms(U)
    U = U / np.where(nrm > 0, nrm, 1.0)[:, None]
    Z, A, b = X, np.broadcast_to(np.eye(d), (n, d, d)), np.zeros((n, d))
    for layer in net.layers:
        Z, A, b = _step(layer, Z, (A @ U[..., None])[..., 0], A, b)
    return Z, A, b


def eval_jacobian(net: NetworkSpec, x: np.ndarray, side: Optional[np.ndarray] = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and active affine piece ``(value, A, b)`` of the network at one
    point ``x``: the one-row case of ``batch_pieces``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValidationError(f"input shape {x.shape} != ({net.input_dim},)")
    Z, A, b = batch_pieces(net, x[None], side)
    return Z[0], A[0], b[0]


def eval(net: NetworkSpec, x: np.ndarray) -> np.ndarray:  # noqa: A001 - spec'd name
    """Exact forward evaluation."""
    return eval_jacobian(net, x)[0]


def _layer_row(layer: Layer, z: np.ndarray, dz: Optional[np.ndarray] = None):
    """The step of ``layer`` at the one point ``z``, its profile ``z`` itself."""
    z = np.asarray(z, dtype=float)
    dz = np.zeros_like(z) if dz is None else np.asarray(dz, dtype=float)
    out = _step(layer, z[None], dz[None], np.eye(len(z))[None], np.zeros((1, len(z))))
    return [a[0] for a in out]


def layer_piece(layer: Layer, z: np.ndarray, dz: Optional[np.ndarray] = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Active affine piece ``(S, c)`` of ``layer`` at its input ``z``.

    ``dz`` (optional) is the derivative of ``z`` along a probe direction and
    resolves boundary ties one-sidedly.
    """
    _, S, c = _layer_row(layer, z, dz)
    return S, c


def layer_value(layer: Layer, z: np.ndarray) -> np.ndarray:
    """Forward value of one layer (ties resolved as in ``layer_piece``)."""
    return _layer_row(layer, z)[0]


def compose(first: NetworkSpec, second: NetworkSpec) -> NetworkSpec:
    """Network computing ``second(first(x))``."""
    if first.output_dim != second.input_dim:
        raise ValidationError(
            f"cannot compose: output dim {first.output_dim} != input dim {second.input_dim}")
    return NetworkSpec(first.input_dim, first.layers + second.layers,
                       metadata=f"compose({first.metadata},{second.metadata})")
