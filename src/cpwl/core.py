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
    row alone gives it (a dot product; ``norm(axis=1)`` rounds differently)."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


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
# Local piece selection (shared conventions for all exact engines).
#
# At a point z the active piece of a layer is an affine map (S, c) with
# out = S @ z + c near z. Boundary ties resolve to the "upper" piece
# (right piece of a scalar unit, first argmax line, stable ascending sort,
# right/upper grid triangle); one-sided queries override ties using the
# directional derivative dz of the pre-activation along the query direction.
# ---------------------------------------------------------------------------

def _pwlu_locate(layer: PWLU2D, u: float, du: float, tol: float = 0.0
                 ) -> tuple[int, float, bool]:
    """Column index along one grid coordinate plus the clamped value and a
    flag for whether the coordinate is clamped (piece has zero u-coefficient)."""
    m = layer.grid_m
    h = layer.grid_step
    if u < -1.0 or (u == -1.0 and du < 0):
        return 0, -1.0, True
    if u > 1.0 or (u == 1.0 and du > 0):
        return m - 2, 1.0, True
    raw = (u + 1.0) / h
    i = int(math.floor(raw))
    if i * h - 1.0 == u and du < 0:  # exactly on a grid node, moving left
        i -= 1
    i = min(max(i, 0), m - 2)
    return i, u, False


def layer_piece(layer: Layer, z: np.ndarray, dz: Optional[np.ndarray] = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Active affine piece ``(S, c)`` of ``layer`` at pre-activation ``z``.

    ``dz`` (optional) is the derivative of ``z`` along a probe direction and
    resolves boundary ties one-sidedly.
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    if isinstance(layer, Affine):
        return layer.map.matrix, layer.map.offset
    if isinstance(layer, Pointwise):
        S = np.zeros((n, n))
        c = np.zeros(n)
        for k, f in enumerate(layer.units):
            side = 0
            if dz is not None and f.breakpoints:
                j = bisect.bisect_left(f.breakpoints, z[k])
                if j < len(f.breakpoints) and f.breakpoints[j] == z[k]:
                    side = 1 if dz[k] >= 0 else -1
            s, b = f.piece_line(f.piece_index(z[k], side if side else 0))
            S[k, k] = s
            c[k] = b
        return S, c
    if isinstance(layer, Maxout):
        vals = np.einsum("ukd,d->uk", layer.weights, z) + layer.offsets  # (units, rank)
        if dz is None:
            sel = np.argmax(vals, axis=1)
        else:
            dirs = np.einsum("ukd,d->uk", layer.weights, dz)
            # Lexicographic argmax on (value, directional slope).
            m = vals.max(axis=1, keepdims=True)
            masked = np.where(vals == m, dirs, -np.inf)
            sel = np.argmax(masked, axis=1)
        S = layer.weights[np.arange(vals.shape[0]), sel, :]
        c = layer.offsets[np.arange(vals.shape[0]), sel]
        return S, c
    if isinstance(layer, GroupSort):
        g = layer.group_size
        S = np.zeros((n, n))
        c = np.zeros(n)
        for start in range(0, n, g):
            block = z[start:start + g]
            if dz is None:
                order = np.argsort(block, kind="stable")
            else:
                order = np.lexsort((dz[start:start + g], block))
            for pos, src in enumerate(order):
                S[start + pos, start + src] = 1.0
        return S, c
    if isinstance(layer, PWLU2D):
        units = layer.values.shape[0]
        S = np.zeros((units, n))
        c = np.zeros(units)
        for k, rmap in enumerate(layer.readins):
            uv = rmap(z)
            duv = rmap.matrix @ dz if dz is not None else np.zeros(2)
            i, uc, uclamp = _pwlu_locate(layer, uv[0], duv[0])
            j, vc, vclamp = _pwlu_locate(layer, uv[1], duv[1])
            s = uc - vc
            s0 = layer.grid_node(i) - layer.grid_node(j)
            if s == s0 and not (uclamp and vclamp):
                lower = (duv[0] - duv[1]) > 0
            else:
                lower = s >= s0
            a, b, c0 = layer.cell_piece(i, j, lower, k)
            row = np.zeros(n)
            off = c0
            if uclamp:
                off += a * uc
            else:
                row += a * rmap.matrix[0]
                off += a * rmap.offset[0]
            if vclamp:
                off += b * vc
            else:
                row += b * rmap.matrix[1]
                off += b * rmap.offset[1]
            S[k] = row
            c[k] = off
        return S, c
    raise ValidationError(f"unknown layer type {type(layer).__name__}")


def layer_value(layer: Layer, z: np.ndarray) -> np.ndarray:
    """Forward value of one layer (ties resolved as in ``layer_piece``)."""
    z = np.asarray(z, dtype=float)
    if isinstance(layer, Affine):
        return layer.map(z)
    if isinstance(layer, Pointwise):
        return np.array([eval_scalar(f, t) for f, t in zip(layer.units, z)])
    if isinstance(layer, Maxout):
        return (np.einsum("ukd,d->uk", layer.weights, z) + layer.offsets).max(axis=1)
    if isinstance(layer, GroupSort):
        g = layer.group_size
        out = z.copy()
        for start in range(0, z.shape[0], g):
            out[start:start + g] = np.sort(out[start:start + g], kind="stable")
        return out
    if isinstance(layer, PWLU2D):
        S, c = layer_piece(layer, z)
        return S @ z + c
    raise ValidationError(f"unknown layer type {type(layer).__name__}")


def eval(net: NetworkSpec, x: np.ndarray) -> np.ndarray:  # noqa: A001 - spec'd name
    """Exact forward evaluation."""
    z = np.asarray(x, dtype=float)
    if z.shape != (net.input_dim,):
        raise ValidationError(f"input shape {z.shape} != ({net.input_dim},)")
    for layer in net.layers:
        z = layer_value(layer, z)
    return z


def eval_scalar_net(net: NetworkSpec, t: float) -> float:
    """Forward evaluation of a 1-in / 1-out network at a scalar input."""
    out = eval(net, np.array([float(t)]))
    if out.shape != (1,):
        raise ValidationError("network is not scalar-valued")
    return float(out[0])


def eval_jacobian(net: NetworkSpec, x: np.ndarray, side: Optional[np.ndarray] = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and active affine piece ``(value, A, b)`` of the network at ``x``.

    ``side`` (optional direction vector) selects the one-sided piece active
    for ``x + eps * side`` with small ``eps > 0``; without it, boundary ties
    resolve to the upper/right piece. ``net(x + eps*side) = A(x+eps*side) + b``
    for small enough eps.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValidationError(f"input shape {x.shape} != ({net.input_dim},)")
    A = np.eye(net.input_dim)
    b = np.zeros(net.input_dim)
    u = None
    if side is not None:
        u = np.asarray(side, dtype=float)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            u = None
        else:
            u = u / nrm
    z = x
    for layer in net.layers:
        dz = A @ u if u is not None else None
        S, c = layer_piece(layer, z, dz)
        A = S @ A
        b = S @ b + c
        z = layer_value(layer, z)
    return z, A, b


def compose(first: NetworkSpec, second: NetworkSpec) -> NetworkSpec:
    """Network computing ``second(first(x))``."""
    if first.output_dim != second.input_dim:
        raise ValidationError(
            f"cannot compose: output dim {first.output_dim} != input dim {second.input_dim}")
    return NetworkSpec(first.input_dim, first.layers + second.layers,
                       metadata=f"compose({first.metadata},{second.metadata})")
