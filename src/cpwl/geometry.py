"""Exact enumeration of the convex cells induced by a CPWL network.

Recursive polyhedral subdivision: start from the whole domain with the
identity piece; per layer, take the layer's switching rows (``switching``)
pulled back through every cell's composed affine map, split each cell by its
rows in order (keeping sides that pass an interior test), then compose every
surviving cell's piece with the layer piece active at its witness, selected
for all of the layer's cells at once. An affine layer makes no rows: it
only composes onto every cell's piece.

Cells (Berzins 2023, "Polyhedral complex extraction from ReLU networks
using edge subdivision"): in every dimension a float backend admits a side
of a cut as a cell iff one of its vertices lies more than 2 EPS_INTERIOR
beyond the cut, the depth that a ball of radius EPS_INTERIOR inside the
side needs, and a cell's witness is its vertex centroid. In 2 inputs a cell
is a convex polygon, clipped cyclically on Python floats; in 1 and 3+
inputs it keeps its vertices with their active rows, and a split reads the
distances to the cut once, as Python floats, and clips by numpy's
elementwise operations in Python, bit for bit as numpy, building only the
sides it keeps. Every region keeps its cell's geometry, from which
``count_report`` reads facet adjacency and ``render_svg`` draws the
polygons; neither solves an LP. Cell processing is pure and
order-independent; the output ordering is canonicalized, so results are
deterministic.

In 2 inputs a row is tried on the parts of a cell only if it crosses the
cell, which a pass over the vertices of a layer's cells decides: it crosses
unless every vertex lies within m - r of one side of it, where
m = 2 EPS_INTERIOR ||a|| is split's margin and r = 2^-48 (max |x| ||a||_1 +
|c|), 32 units of rounding at the cells' scale, bounds how far split's
values at a part's vertices (a part lies in its cell, its vertices up to
rounding) can stray from the cell's. So on every part no vertex lies more
than m beyond that side, and split, which admits a side by that very test,
returns None. Past |x| of about 4e7 r exceeds m, and only rows clear of a
cell by more than rounding are passed over. The filter thus drops only
splits that would not happen, and the cells are the same bit for bit. Also
in 2 inputs, one split along the tie of two maxout candidates gives both
their cuts, as negated values clip to the same vertices.

The float engine's tolerances are the module constants R_MAX, EPS_INTERIOR,
DEDUP_TOL, ZERO_NORMAL_TOL and FINGERPRINT_TOL; ``enumerate_regions``' cell
budget is the one setting.

Exact mode (``exact_cell_count``: any d; affine, pointwise, maxout and
group-sort layers) runs the same layer loop, ``_subdivide``, on Fractions:
its backend keeps the vertex cells of 1 and 3+ inputs in every dimension,
admits a side iff a vertex lies strictly beyond the cut, skips only exactly
zero normals and keys no rows.

The witness LP serves the public ``interior_witness_report`` alone, on
rows scaled to unit norm. Its kernel calls scipy's HiGHS bindings
directly, with the options and the post-check of
``scipy.optimize.linprog(method="highs")``, so it returns what linprog
would. The binding loads on the first LP, so runs that solve none never
import scipy, and one HiGHS solver serves every LP of the process.
"""
from __future__ import annotations

import colorsys
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

# layer_piece is not called here; it stays importable as geometry.layer_piece,
# where bench/spans.py counts the calls made through this module.
from .core import (Affine, AffineMap, Maxout, NetworkSpec, PWLU2D, ValidationError,  # noqa: F401
                   layer_piece, row_norms, vector_norm)
from .switching import raw_layers, stack, unit_pieces


R_MAX = 1e6  # half-width of the box that bounds an unbounded domain
# Interior margin of a cell: a side of a cut has a vertex more than
# 2 EPS_INTERIOR beyond the cut, and a witness LP's margin exceeds it.
EPS_INTERIOR = 1e-7
DEDUP_TOL = 1e-9  # rows whose unit-norm forms round alike at this are one hyperplane
ZERO_NORMAL_TOL = 1e-12  # pulled-back normals up to this are skipped
FINGERPRINT_TOL = 1e-6  # relative rounding of piece fingerprints
CELL_BUDGET = 10 ** 6  # enumerate_regions' default cell_budget
_ON_ROW_TOL = 1e-9  # regions_containing's slack, relative to max(1, ||a||)


class BudgetExceeded(RuntimeError):
    """Cell budget hit during subdivision; ``layer`` is the (index, type) of
    the network layer being split, the type as in the network JSON."""

    def __init__(self, count: int, budget: int, layer: tuple[int, str]):
        super().__init__(f"cell budget exceeded: {count} > {budget} in layer {layer[0]} ({layer[1]})")
        self.count = count
        self.budget = budget
        self.layer = layer


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {x : normal . x + offset >= 0}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.array(self.normal, dtype=float)
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))


@dataclass(frozen=True)
class Witness:
    point: np.ndarray
    margin: float
    status: str  # "interior" | "degenerate" | "empty"


@dataclass
class Region:
    """One subdivision cell: its rows (a, c), the half-spaces a.x + c >= 0,
    the network's affine piece on it, and a witness point inside it, the
    centroid of its vertices. It keeps the cell geometry that enumeration
    built, ``geom``: the polygon's vertex array in 2 inputs, else the
    vertices ``(V, act)`` of ``_VertexBackend``. ``count_report`` and
    ``render_svg`` read it; it is never serialised."""

    rows: list
    piece: AffineMap
    witness: np.ndarray
    geom: object = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def constraints(self) -> tuple[HalfSpace, ...]:  # built when first read
        return tuple(HalfSpace(a, c) for a, c in self.rows)


@dataclass
class RegionSet:
    """The regions of a subdivision; ``pieces`` holds their pieces stacked
    as read-only (matrices, offsets) arrays in the order of ``regions``,
    each region's piece being a view of its row."""

    input_dim: int
    regions: list[Region]
    domain: Optional[tuple[np.ndarray, np.ndarray]]  # None = unbounded (R_max box)
    pieces: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.regions)


@dataclass
class CountReport:
    cell_count: int
    distinct_piece_count: int
    connected_piece_count: int
    bounds: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# LP feasibility kernel
# ---------------------------------------------------------------------------

@functools.cache
def _highs_core():
    """(binding, solver) of HiGHS, made on the first LP. The solver holds the
    options scipy.optimize.linprog(method="highs") sets (scipy 1.17.1,
    _linprog_highs); every other option keeps its HiGHS default. Each
    passModel clears the previous model, basis and solution, so reusing the
    solver gives what a fresh one would. The solver is not safe to share
    between threads; every LP of cpwl runs on the calling thread."""
    from scipy.optimize._highspy import _core
    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = int(_core.HighsDebugLevel.kHighsDebugLevelNone)
    options.log_to_console = options.output_flag = False
    solver = _core._Highs()
    if solver.passOptions(options) == _core.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected linprog's options")
    return _core, solver


_LP_CHECK_TOL = math.sqrt(1e-9) * 10  # linprog's post-check (_check_result)


def _highs_solve(c, A, lhs, rhs, lb, ub, n_ub: int) -> Optional[np.ndarray]:
    """Minimize c.x s.t. lhs <= A x <= rhs (rows from ``n_ub`` on are
    equalities) and lb <= x <= ub with linprog's HiGHS options.
    Returns x, or None where linprog reports no success: no optimum, or NaN
    values, or bound, slack or equality residuals past its tolerance."""
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise ValueError("witness LP rows must be finite")
    _highs, h = _highs_core()
    col, row = np.nonzero(A.T)  # as csc_array(A): zeros dropped, column-major
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = A.shape[1]
    lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(col, np.arange(A.shape[1] + 1)).tolist()
    lp.a_matrix_.index_ = row.tolist()
    lp.a_matrix_.value_ = A.T[col, row]
    lp.col_cost_, lp.row_lower_, lp.row_upper_ = c, lhs, rhs
    lp.col_lower_, lp.col_upper_ = np.clip((lb, ub), -_highs.kHighsInf, _highs.kHighsInf)
    error = _highs.HighsStatus.kError
    if (h.passModel(lp) == error or h.run() == error
            or h.getModelStatus() != _highs.HighsModelStatus.kOptimal):
        return None
    sol, t = h.getSolution(), _LP_CHECK_TOL
    x, slack = np.array(sol.col_value), rhs - sol.row_value
    if (np.isnan(x).any() or np.isnan(slack).any() or math.isnan(h.getInfo().objective_function_value)
            or (x < lb - t).any() or (x > ub + t).any() or (slack[:n_ub] < -t).any()
            or (np.abs(slack[n_ub:]) > t).any()):
        return None
    return x


def _unit_rows(N: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (N, C) over their normals' norms, and the norm of each row
    then: 1, or 0 for a zero row, which stays as it is."""
    norms = row_norms(N)
    nonzero = norms > 0.0
    norms[~nonzero] = 1.0
    return N / norms[:, None], C / norms, nonzero.astype(float)


def interior_witness_report(constraints: Sequence[HalfSpace | tuple],
                            bounds: Optional[tuple[np.ndarray, np.ndarray]] = None,
                            equality: Optional[tuple[np.ndarray, float]] = None,
                            dim: Optional[int] = None) -> Witness:
    """Chebyshev-style LP: maximize eps s.t. a_i.x + c_i >= eps*||a_i|| within
    |x_j| <= R_MAX (or the given bounds), eps <= R_MAX. Every row, and the
    equality row, is scaled to unit norm before solving (zero rows stay as
    they are), so that HiGHS' absolute tolerances are distances.

    Status "interior" iff eps* > EPS_INTERIOR; "degenerate" for
    0 <= eps* <= EPS_INTERIOR; "empty" when infeasible or eps* < 0. HiGHS
    solves it as linprog(method="highs") would: presolve on, dual simplex, no
    debug checks or output. As in linprog, an optimum that has NaNs or misses
    a bound, inequality or equality by more than sqrt(1e-9) * 10 is "empty".
    """
    N = np.array([h.normal if isinstance(h, HalfSpace) else h[0] for h in constraints],
                 dtype=float)
    C = np.array([h.offset if isinstance(h, HalfSpace) else h[1] for h in constraints],
                 dtype=float)
    if dim is None:
        if len(N):
            dim = N.shape[1]
        elif bounds is not None:
            dim = np.asarray(bounds[0]).shape[0]
        elif equality is not None:
            dim = np.asarray(equality[0]).shape[0]
        else:
            raise ValidationError("cannot infer dimension for the witness LP")
    if bounds is None:
        lo = np.full(dim, -R_MAX)
        hi = np.full(dim, R_MAX)
    else:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
    if not len(N) and equality is None:
        return Witness((lo + hi) / 2.0, R_MAX, "interior")
    # Variables (x_1..x_d, eps); maximize eps. Unit rows -a.x + eps <= c,
    # then the equality row a_eq.x = -c_eq.
    N, C, norms = _unit_rows(N.reshape(len(N), dim), C)
    A = np.hstack([-N, norms[:, None]])
    lhs = np.full(len(N), -math.inf)
    if equality is not None:
        a_eq, c_eq, _ = _unit_rows(np.asarray(equality[0], dtype=float)[None],
                                np.array([float(equality[1])]))
        A = np.vstack([A, np.append(a_eq, 0.0)])
        C = np.append(C, -c_eq)
        lhs = np.append(lhs, C[-1])
    x = _highs_solve(np.concatenate([np.zeros(dim), [-1.0]]), A, lhs, C,
                     np.append(lo, -math.inf), np.append(hi, R_MAX), len(N))
    if x is None:
        return Witness(np.zeros(dim), -math.inf, "empty")
    eps = float(x[-1])
    point = x[:-1]
    if eps > EPS_INTERIOR:
        return Witness(point, eps, "interior")
    if eps >= 0.0:
        return Witness(point, eps, "degenerate")
    return Witness(point, eps, "empty")


# ---------------------------------------------------------------------------
# Subdivision cells and backends
# ---------------------------------------------------------------------------

@dataclass
class _Cell:
    constraints: list
    witness: np.ndarray
    geom: object


def _normalize_domain(domain, d: int):
    """Returns (lo, hi, bounded)."""
    if domain is None:
        return np.full(d, -R_MAX), np.full(d, R_MAX), False
    lo, hi = domain
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (d,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (d,)).copy()
    if not np.all(lo < hi):
        raise ValidationError("domain box must have positive extent")
    return lo, hi, True


class _FloatBackend:
    """The float engine's rows: a normal up to ``ZERO_NORMAL_TOL`` (relative,
    for maxout candidates) is zero, and rows whose keys agree at
    ``DEDUP_TOL`` are one hyperplane, split by once.

    Every backend has ``split(cell, a, c)``: None, or the sides a.x + c < 0
    and > 0 as (geom, witness) pairs. A float backend splits iff a vertex
    lies more than 2 EPS_INTERIOR beyond the cut on each side, and a side's
    witness is the centroid of its vertices. ``split_positive`` gives the
    second side alone, or None. ``crossing(cells, N, C)`` tells, for each
    cell of a layer and each of its rows, whether the row may split the cell
    or a part of it (here: always). Where ``shares_ties`` is set, a split by
    the negated row gives the same two sides swapped, bit for bit, so one
    split serves both candidates of a maxout tie."""

    zero_normal_tol = ZERO_NORMAL_TOL
    shares_ties = False

    def keys(self, N: np.ndarray, C: np.ndarray) -> Sequence:
        return _hyperplane_keys(N, C)

    def crossing(self, cells: list, N: np.ndarray, C: np.ndarray) -> list:
        return np.ones(C.shape, dtype=bool).tolist()

    def split_positive(self, cell: _Cell, a: np.ndarray, c: float):
        res = self.split(cell, a, c)
        return res and res[1]


def _clip(verts: list, vals: list) -> tuple[list, list]:
    """Split a convex polygon, a list of (x, y), where ``vals`` (a.x + c at
    each vertex) changes sign; returns (neg, pos) vertex lists, maybe empty."""
    neg, pos = [], []
    for p, q, vi, vj in zip(verts, verts[1:] + verts[:1], vals, vals[1:] + vals[:1]):
        if vi <= 0:
            neg.append(p)
        if vi >= 0:
            pos.append(p)
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            r = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            neg.append(r)
            pos.append(r)
    return neg, pos


class _PolygonBackend(_FloatBackend):
    """d = 2: a cell is a convex polygon, its vertex array in order, split by
    cyclic (Sutherland-Hodgman) clipping on Python floats. ``crossing``
    drops only rows that split no part of a cell (see the module
    docstring)."""

    shares_ties = True

    def root(self, lo, hi):
        verts = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
        return verts, verts.mean(axis=0)

    def crossing(self, cells, N, C):
        # Each row at the cells' vertices, a block of cells at a time, so the
        # (vertices x rows) arrays stay a few MB however many cells a layer has;
        # r takes ||a||_1 <= sqrt(2) ||a||.
        out, step = [], max(1, _CROSSING_BLOCK // max(1, N.shape[1]))
        with np.errstate(invalid="ignore"):  # a NaN crosses: split decides as ever
            for f in range(0, len(cells), step):
                block, Nb, Cb = cells[f:f + step], N[f:f + step], C[f:f + step]
                sizes = [len(cell.geom) for cell in block]
                owner = np.repeat(np.arange(len(block)), sizes)
                X = np.concatenate([cell.geom for cell in block])
                D = X[:, :1] * Nb[owner, :, 0] + X[:, 1:] * Nb[owner, :, 1] + Cb[owner]
                per_norm = 2.0 * EPS_INTERIOR - _VERTEX_ROUNDING * math.sqrt(2) * float(np.abs(X).max())
                m = np.hypot(Nb[..., 0], Nb[..., 1]) * per_norm - _VERTEX_ROUNDING * np.abs(Cb)
                starts = np.cumsum([0] + sizes[:-1])
                one_sided = (np.minimum.reduceat(D, starts) >= -m) | (np.maximum.reduceat(D, starts) <= m)
                out += (~one_sided).tolist()
        return out

    def split(self, cell: _Cell, a: np.ndarray, c: float):
        vals = (cell.geom @ a + c).tolist()
        m = 2.0 * EPS_INTERIOR * vector_norm(a)
        if min(vals) >= -m or max(vals) <= m:
            return None
        sides = []
        for verts in _clip(cell.geom.tolist(), vals):
            xs, ys = zip(*verts)  # the vertex centroid, summed as mean(axis=0) sums it
            sides.append((np.array(verts), np.array([sum(xs) / len(xs), sum(ys) / len(ys)])))
        return tuple(sides)


_VERTEX_ROUNDING = 2.0 ** -48  # see _snap_tol
_CROSSING_BLOCK = 2 ** 16  # cells x rows of one block of _PolygonBackend.crossing


def _snap_tol(vmax, a1, c, norm):
    """The distance within which a vertex is on the cut a.x + c = 0 up to
    rounding, and is snapped onto it so that neither side gets a copy, for
    one row or (as arrays) many: 32 units of rounding of the cell's largest
    term, (max |V| ||a||_1 + |c|) / ||a||. On concurrent planes clipped
    vertices err by under 2^-50 of it, while 2^-44 and coarser snap real
    depths on the R_max box and change counts that the same rule gives in
    exact arithmetic."""
    return _VERTEX_ROUNDING * (vmax * a1 + abs(c)) / norm


def _clip_vertices(V: np.ndarray, act: list, dist: Sequence, bit: int, keep=(0, 1)):
    """(V, act) of the sides dist < 0 and dist > 0 (those numbered in
    ``keep``) of a polytope with vertices ``V`` and active-row bit sets
    ``act``, cut by the row ``bit``; vertices with dist == 0 go to both
    sides, NaN ones to neither. New vertices lie on the edges whose ends
    have opposite signs: two vertices share an edge when their sets share
    d - 1 rows and no third vertex's set holds those rows (the
    double-description method's combinatorial test; moot when one of the
    two has only d rows). They are interpolated on Python numbers by
    numpy's elementwise formulas, so floats match theirs bit for bit."""
    d, P = V.shape[1], V.tolist()
    sides, on = ([], []), []
    for i, v in enumerate(dist):
        (sides[0] if v < 0 else sides[1] if v > 0 else on if v == 0 else []).append(i)
    W, cut, simple = [], [], [w.bit_count() == d for w in act]
    for i in sides[0]:
        p, vi, ai = P[i], dist[i], act[i]
        for j in sides[1]:
            z = ai & act[j]
            if z.bit_count() >= d - 1 and (simple[i] or simple[j]
                                           or sum(z & w == z for w in act) == 2):
                t = vi / (vi - dist[j])
                W.append([x + t * (y - x) for x, y in zip(p, P[j])])
                cut.append(z | bit)
    W += [P[k] for k in on]
    cut += [act[k] | bit for k in on]
    return [(np.array([P[i] for i in sides[k]] + W, dtype=V.dtype).reshape(-1, d),
             [act[i] for i in sides[k]] + cut) for k in keep]


class _VertexBackend(_FloatBackend):
    """d = 1 or d >= 3: a cell is its vertices, ``geom`` being ``(V, act)``
    with ``act`` holding each vertex's active rows as bits (box faces 2j and
    2j + 1 for lo_j and hi_j, then the constraints in order); its witness is
    the vertex centroid. The root is the domain box. In 1 input a cell is
    an interval, its two ends its vertices.

    A side of a cut is a cell under the rule of every float backend
    (``_FloatBackend``); box faces count as facets. A split reads the
    distances once as Python numbers, and one pass snaps those within
    ``_snap_tol`` to 0 and finds the deepest on each side; the children get
    their vertices from ``_clip_vertices``.
    """

    def root(self, lo, hi):
        corners = list(itertools.product((0, 1), repeat=len(lo)))
        V = np.where(np.array(corners, dtype=bool), hi, lo)
        act = [sum(1 << (2 * j + b) for j, b in enumerate(bits)) for bits in corners]
        return (V, act), V.mean(axis=0)

    def split(self, cell: _Cell, a: np.ndarray, c: float, keep=(0, 1)):
        """The sides numbered in ``keep`` (0 for a.x + c < 0, 1 for > 0), or
        None."""
        V, act = cell.geom
        dist, tol, depth = self._distances(cell, a, c)
        hi = lo = 0.0  # a NaN distance (on neither side) never leaves a cut one-sided
        for i, v in enumerate(dist):
            if abs(v) <= tol:
                dist[i] = 0.0
            elif v > hi:
                hi = v
            elif v < lo:
                lo = v
            elif v != v:
                hi, lo = math.inf, -math.inf
        if hi <= depth or lo >= -depth:
            return None
        sides = _clip_vertices(V, act, dist, 1 << (2 * V.shape[1] + len(cell.constraints)), keep)
        return tuple(((W, bits), W.mean(axis=0)) for W, bits in sides)

    def split_positive(self, cell, a, c):
        res = self.split(cell, a, c, (1,))
        return res and res[0]

    def _distances(self, cell: _Cell, a: np.ndarray, c: float):
        """(each vertex's distance beyond the cut, a list; ``_snap_tol``; the
        depth beyond the cut that admits a side)."""
        V, norm = cell.geom[0], vector_norm(a)
        tol = _snap_tol(np.abs(V).max(), np.abs(a).sum(), c, norm)
        return ((V @ a + c) / norm).tolist(), tol, 2.0 * EPS_INTERIOR


class _ExactBackend(_VertexBackend):
    """Exact mode, any d: the cells of ``_VertexBackend`` on ``Fraction``
    object arrays. A side of a cut is a cell iff one of its vertices lies
    strictly beyond the cut, that is iff it has positive measure; nothing
    is rounded, so nothing is snapped, a zero normal is exactly zero, and
    rows get no keys, as a repeated row cannot split a cell twice."""

    zero_normal_tol = 0

    def keys(self, N, C):
        return range(len(N))

    def _distances(self, cell, a, c):
        return (cell.geom[0] @ a + c).tolist(), 0, 0


def _backend_for(d: int):
    return _PolygonBackend() if d == 2 else _VertexBackend()


# ---------------------------------------------------------------------------
# Splitting a cell by one layer
# ---------------------------------------------------------------------------

def _hyperplane_keys(N: np.ndarray, C: np.ndarray, signed: bool = False) -> list:
    """Key of each hyperplane N x + C = 0: its row (a, c) over ||a||, rounded
    at ``DEDUP_TOL``; unless ``signed``, the sign is fixed (first entry of a
    past ``DEDUP_TOL`` positive) so that (a, c) and (-a, -c) share one key."""
    V = np.hstack([N, np.reshape(C, (-1, 1))]) / row_norms(N)[:, None]
    if not signed:
        big = np.abs(V[:, :-1]) > DEDUP_TOL
        first = V[np.arange(len(V)), big.argmax(axis=1)]
        V[big.any(axis=1) & (first < 0)] *= -1.0
    digits = max(0, int(round(-math.log10(DEDUP_TOL))))
    return list(map(tuple, np.round(V, digits).tolist()))


def _side_cell(p: "_Cell", a: np.ndarray, c: float, side):
    """Cell ``p`` clipped to {a.x + c >= 0}, given ``side``, that side's
    (geom, witness) where the row splits ``p``, else None: returns ``p``
    itself when the cell (up to slivers) already lies there, ``None`` when
    essentially nothing does, or a new smaller cell. Sliver sides follow the
    witness, so geometry is never shaved off without an actual crossing."""
    if side is None:
        return p if a @ p.witness + c > 0 else None
    return _Cell(p.constraints + [(a, c)], side[1], side[0])


def _clip_positive(backend, p: "_Cell", a: np.ndarray, c: float):
    """Clip cell ``p`` to the side {a.x + c >= 0} (see ``_side_cell``)."""
    return _side_cell(p, a, c, backend.split_positive(p, a, c))


def _clip_tie(backend, p: "_Cell", row: tuple, other: tuple) -> tuple:
    """``_clip_positive`` of ``p`` by ``row`` and by ``other``, its negation
    (R_j - R_i and R_i - R_j of two maxout candidates), from one split by
    ``row``. Where ``backend.shares_ties`` holds, the negated values clip to
    the same vertices in the same order on the other side, and a row splits
    a cell iff its negation does, so both cells are as the two calls give
    them, bit for bit; each keeps its own row."""
    (a, c), (a2, c2) = row, other
    neg, pos = backend.split(p, a, c) or (None, None)
    return _side_cell(p, a, c, pos), _side_cell(p, a2, c2, neg)


def _maxout_parts(backend, cell: "_Cell", R: np.ndarray, s: list) -> list["_Cell"]:
    """Subdivide a cell into the argmax regions of every maxout unit, given
    the units' candidates pulled back through the cell's piece, ``R``
    (units, rank, d) and ``s`` (units, rank) as nested lists.

    Each unit contributes at most ``rank`` subcells per part (one per
    candidate attaining the max somewhere), so the subdivision never refines
    beyond the unit's actual fold set — pairwise tie hyperplanes where
    neither candidate attains the max are not folds and must not split.

    Where the backend ``shares_ties``, candidate j's cut of the part itself
    against candidate i also gives i's cut of it against j (``_clip_tie``)."""
    parts = [cell]
    for Ru, su in zip(R, s):
        tol = backend.zero_normal_tol * max(1.0, float(np.abs(Ru).max()))
        new_parts = []
        for p in parts:
            kept, halves = [], {}  # (j, i): candidate j's cut of p against i
            for j in range(len(su)):
                q = p
                for i in range(len(su)):
                    if i == j:
                        continue
                    a, c = Ru[j] - Ru[i], su[j] - su[i]
                    if np.abs(a).max() <= tol:
                        # Dominated everywhere, or an identical candidate: first wins.
                        if c < -tol or (abs(c) <= tol and i < j):
                            break
                        continue
                    if q is p and (j, i) in halves:
                        q = halves.pop((j, i))
                    elif q is p and backend.shares_ties:
                        q, halves[i, j] = _clip_tie(backend, p, (a, c),
                                                    (Ru[i] - Ru[j], su[i] - su[j]))
                    else:
                        q = _clip_positive(backend, q, a, c)
                    if q is None:
                        break
                else:
                    kept.append(q)
            new_parts += kept if len(kept) > 1 else [p]  # else the unit is affine on p
        parts = new_parts
    return parts


def _split_by_rows(backend, cell: "_Cell", N: np.ndarray, C: list, live, keys: Sequence,
                   cross: list, layer, piece: tuple, room: int) -> list["_Cell"]:
    """Split a cell by its ``live`` switching rows ``N x + C = 0`` in order,
    skipping repeats by their ``keys``, then the rows that do not ``cross``
    the cell (``backend.crossing``), which split none of its parts. A
    guarded row splits only parts whose witness the cell's ``piece`` maps
    inside its unit's clamp box. It stops once the parts outnumber ``room``,
    the cells left in the layer's budget."""
    guard = layer.guard
    parts, seen = [cell], set()
    for r, key in zip(live, keys):
        if key in seen:
            continue
        seen.add(key)
        if cross[r]:
            a, c, new_parts = N[r], C[r], []
            for p in parts:
                blocked = guard is not None and guard[r] >= 0 and \
                    not layer.inside((piece[0] @ p.witness + piece[1])[None])[0, guard[r]]
                res = None if blocked else backend.split(p, a, c)
                if res is None:
                    new_parts.append(p)
                else:
                    (g_neg, w_neg), (g_pos, w_pos) = res
                    new_parts += [_Cell(p.constraints + [(-a, -c)], w_neg, g_neg),
                                  _Cell(p.constraints + [(a, c)], w_pos, g_pos)]
            parts = new_parts
        if len(parts) > room:
            break
    return parts


# ---------------------------------------------------------------------------
# Main enumeration
# ---------------------------------------------------------------------------

def _subdivide(layers: list, backend, lo: np.ndarray, hi: np.ndarray, A: np.ndarray,
               b: np.ndarray, budget: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The cells of the box [lo, hi] under ``layers`` (a net's stacked layers
    from ``switching``) and the network's piece on each, composed onto the
    identity ``(A, b)``: returns (cells, A, b), the pieces stacked. Floats or
    Fractions, the arrays carry the arithmetic; the backend says which
    normals are zero and which rows repeat. Raises ``BudgetExceeded``, naming
    the layer, past ``budget`` cells in a layer, and ``ValidationError`` on
    rows that are not finite or, on floats, could overflow on the box."""
    geom, w = backend.root(lo, hi)
    cells = [_Cell([], w, geom)]
    # A row's values on the box are at most (largest |a_j|) * reach + |c|;
    # Fractions cannot overflow, so on them only non-finite data fails.
    reach = 0 if lo.dtype == object else float(np.abs([lo, hi]).max()) * len(lo)
    for index, layer in enumerate(layers):
        if layer.kind is Affine:
            A, b = layer.compose(A, b, None, None)
            continue
        maxout = layer.kind is Maxout  # per cell: its candidates, or else its rows
        N, C = layer.candidates(A, b) if maxout else layer.rows(A, b)
        size = np.abs(N).max(axis=-1)
        # A row must be finite on the box, or split would cut at NaN or infinite
        # distances (max keeps a NaN); -inf offsets pad the rows of pointwise
        # units, and no row with one splits.
        offset = np.abs(C) if maxout else np.where(C == -np.inf, 0.0, np.abs(C))
        with np.errstate(over="ignore"):  # the overflow is what is tested for
            fits = size.max(initial=0.0) * reach + offset.max(initial=0.0) < np.inf
        if not fits:
            raise ValidationError("non-finite affine data")
        if not maxout:  # skip near-zero normals (a constant piece) and padding rows
            live = (size > backend.zero_normal_tol) & (C > -np.inf)
            keys = backend.keys(N[live], C[live])
            cuts = [0] + np.cumsum(live.sum(axis=1)).tolist()
            rows, offsets = live.nonzero()[1].tolist(), C.tolist()
            cross = backend.crossing(cells, N, C)
        out_cells, parent = [], []
        for i, cell in enumerate(cells):
            if maxout:
                parts = _maxout_parts(backend, cell, N[i], C[i].tolist())
            else:
                f, e = cuts[i], cuts[i + 1]
                parts = _split_by_rows(backend, cell, N[i], offsets[i], rows[f:e], keys[f:e],
                                       cross[i], layer, (A[i], b[i]), budget - len(out_cells))
            if len(out_cells) + len(parts) > budget:
                raise BudgetExceeded(len(out_cells) + len(parts), budget,
                                     (index, layer.kind.__name__.lower()))
            out_cells.extend(parts)
            parent += [i] * len(parts)
        cells, A, b = out_cells, A[parent], b[parent]
        Z = (A @ np.array([cell.witness for cell in cells])[..., None])[..., 0] + b
        A, b = layer.compose(A, b, Z, np.zeros_like(Z))
    return cells, A, b


def enumerate_regions(net: NetworkSpec, domain=None, *,
                      cell_budget: int = CELL_BUDGET) -> RegionSet:
    """Subdivide the domain into the network's convex linear cells.

    ``domain`` is None (unbounded; an R_MAX box bounds the search) or a box
    ``(lo, hi)`` with scalars or per-coordinate arrays. Raises
    ``BudgetExceeded`` past ``cell_budget`` cells.
    """
    d = net.input_dim
    lo, hi, bounded = _normalize_domain(domain, d)
    cells, A, b = _subdivide(stack([raw_layers(net)]), _backend_for(d), lo, hi,
                             np.eye(d)[None], np.zeros((1, d)), cell_budget)
    W = np.round([cell.witness for cell in cells], 9).tolist()
    order = sorted(range(len(cells)), key=lambda i: (W[i], len(cells[i].constraints)))
    A, b = A[order], b[order]
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValidationError("non-finite affine data")
    A.setflags(write=False)
    b.setflags(write=False)
    regions = [Region(cells[i].constraints, AffineMap.view(A[k], b[k]), cells[i].witness.copy(),
                      cells[i].geom) for k, i in enumerate(order)]
    return RegionSet(d, regions, (lo, hi) if bounded else None, (A, b))


def _piece_fingerprints(M: np.ndarray, B: np.ndarray) -> list:
    """Quantized (matrix, offset) key of each piece (M[i], B[i]); equal
    pieces map to equal keys, pieces differing by more than
    ``FINGERPRINT_TOL`` (relative) map to different keys."""
    F = np.hstack([M.reshape(len(M), -1), B.reshape(len(B), -1)])
    q = FINGERPRINT_TOL * np.maximum(1.0, np.abs(F).max(axis=1))
    return list(map(tuple, np.round(F / q[:, None]).astype(np.int64).tolist()))


def piece_fingerprint(piece: AffineMap) -> tuple:
    """``_piece_fingerprints`` of the one piece."""
    return _piece_fingerprints(piece.matrix[None], piece.offset[None])[0]


def _stack_rows(rows: list, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (a, c) stacked as (normals, offsets)."""
    return (np.array([a for a, _ in rows]).reshape(len(rows), d),
            np.array([c for _, c in rows], dtype=float))


def _facet_is_thick(V: np.ndarray, act: list, N: np.ndarray, C: np.ndarray, bit: int,
                    depth: float) -> bool:
    """Whether the facet with vertices ``V`` and bit sets ``act`` passes
    ``_VertexBackend.split``'s rule against the rows N x + C >= 0 in turn: a
    row that no vertex lies ``depth`` beyond rejects it, one that a vertex
    lies ``depth`` before clips it (as row ``bit`` on)."""
    norm = row_norms(N)
    D = (V @ N.T + C) / norm
    D[np.abs(D) <= _snap_tol(np.abs(V).max(), np.abs(N).sum(axis=1), C, norm)] = 0
    acts = np.flatnonzero((D.max(axis=0) <= depth) | (D.min(axis=0) < -depth))
    if not len(acts):
        return True
    m = int(acts[0])  # the rows before it leave the facet as it is
    if D[:, m].max() <= depth:
        return False
    V, act = _clip_vertices(V, act, D[:, m].tolist(), 1 << (bit + m), (1,))[0]
    return _facet_is_thick(V, act, N[m + 1:], C[m + 1:], bit + m + 1, depth)


def _components(cells: list, d: int, box: float) -> int:
    """Connected components of one piece's cells under facet adjacency (see
    ``count_report``); ``box`` is the largest coordinate of the domain box
    that their vertices were clipped from."""
    if len(cells) == 1:
        return 1
    if any(r.geom is None for r in cells):
        raise ValidationError("facet adjacency needs the cells of enumerate_regions")
    N, C = _stack_rows([row for r in cells for row in r.rows], d)
    keys = _hyperplane_keys(np.vstack([N, -N]), np.concatenate([C, -C]), True)
    signed, negated = keys[:len(N)], keys[len(N):]
    planes = [min(k, n) for k, n in zip(signed, negated)]
    bounds = list(itertools.pairwise([0] + np.cumsum([len(r.rows) for r in cells]).tolist()))
    # A cell's facet on a row: its vertices within rounding of the row at the
    # box's scale, in 1 and 3+ inputs those whose act holds the row. Its span
    # runs along the line in 2 inputs, else along the axis the normal leans on
    # least. In 1 and 3+ inputs the span and the bounding box are widened by
    # that rounding as a distance (the two copies of a facet may differ by it,
    # and a 1-input facet is a point), and the boxes must meet in every
    # coordinate as well.
    P = np.array([p[:-1] for p in planes]).reshape(len(N), d)
    U = P[:, ::-1] * [-1.0, 1.0] if d == 2 else np.eye(d)[np.abs(P).argmin(axis=1)]
    tol = _VERTEX_ROUNDING * (box * np.abs(N).sum(axis=1) + np.abs(C))
    gap = tol / row_norms(N)
    spans: dict[tuple, list] = {}
    reach = np.empty((2, len(N)))  # each facet's span (lo, hi)
    facets = []  # (vertices, their rows) of every cell's facets in 1 and 3+ inputs
    for r, (f, e) in zip(cells, bounds):
        V = r.geom if d == 2 else r.geom[0]
        on = np.abs(V @ N[f:e].T + C[f:e]) <= tol[f:e] if d == 2 else np.array(
            [[w >> k & 1 for k in range(2 * d, 2 * d + e - f)] for w in r.geom[1]], dtype=bool)
        x = V @ U[f:e].T
        lo, hi = np.where(on, x, np.inf).min(axis=0), np.where(on, x, -np.inf).max(axis=0)
        if d != 2:
            lo, hi = lo - gap[f:e], hi + gap[f:e]
            k, g = np.nonzero(on)
            facets.append((V[k], f + g))
        reach[:, f:e] = lo, hi
        for g in (f + np.flatnonzero(on.any(axis=0))).tolist():
            spans.setdefault(planes[g], []).append((lo[g - f], hi[g - f], signed[g] < negated[g], g))
    ksets, nsets = [set(signed[f:e]) for f, e in bounds], [set(negated[f:e]) for f, e in bounds]
    root = list(range(len(cells)))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    G, H = [], []  # the rows of spans that overlap or touch: the later one's, its rival's
    for plane_spans in spans.values():  # sweep along the hyperplane
        open_ = ([], [])
        for lo, hi, side, g in sorted(plane_spans):
            open_[side][:] = [s for s in open_[side] if s[0] >= lo]
            G += [g] * len(open_[side])
            H += [h for _, h in open_[side]]
            open_[not side].append((hi, g))
    G, H = np.array(G, dtype=np.intp), np.array(H, dtype=np.intp)
    if d != 2:
        X, rows = (np.concatenate(a) for a in zip(*facets))
        boxes = np.stack([np.full((len(N), d), np.inf), np.full((len(N), d), -np.inf)])
        np.minimum.at(boxes[0], rows, X)
        np.maximum.at(boxes[1], rows, X)
        boxes += [-gap[:, None], gap[:, None]]
        meet = ((boxes[0, G] <= boxes[1, H]) & (boxes[0, H] <= boxes[1, G])).all(axis=1)
        G, H = G[meet], H[meet]
    owner = np.repeat(np.arange(len(cells)), [e - f for f, e in bounds])
    pairs = (reach[0, G] - np.minimum(reach[1, G], reach[1, H]), owner[G], G, owner[H])
    order = np.lexsort(pairs[::-1])  # the longest overlap first: fewer facets to clip
    for overlap, p, g, q in zip(*(v[order].tolist() for v in pairs)):
        if find(p) == find(q) or len(ksets[p] & nsets[q]) != 1:
            continue
        if d != 2:
            V, act = cells[p].geom
            on = [w >> (2 * d + g - bounds[p][0]) & 1 == 1 for w in act]
            rest = [h for c in (p, q) for h in range(*bounds[c]) if planes[h] != planes[g]]
            if not _facet_is_thick(V[on], [w for w, o in zip(act, on) if o], N[rest], C[rest],
                                   2 * d + len(cells[p].rows), 2 * EPS_INTERIOR):
                continue
        elif -overlap <= 2 * EPS_INTERIOR:
            continue
        root[find(p)] = find(q)
    return sum(find(i) == i for i in range(len(cells)))


def count_report(rs: RegionSet, net: Optional[NetworkSpec] = None) -> CountReport:
    """Cell count, distinct affine pieces, and connected components of
    equal-piece cells under facet adjacency, read off the cells' geometry
    with no LP. Two cells of one piece are adjacent iff exactly one
    hyperplane separates them (a row of one whose negation is a row of the
    other) and their facets on it overlap by more than 2 EPS_INTERIOR. In 2
    inputs their edges on the line overlap by more than that; in 1 and 3+,
    p's facet (its vertices whose ``act`` holds the row), clipped by q's
    other rows with ``_clip_vertices``, has a vertex more than that beyond
    every other row of both, the rule that admits cells. Candidate pairs
    come from joining the rows' signed keys within a piece and sweeping the
    facets' spans along each plane; in 1 and 3+ inputs the facets' bounding
    boxes must also meet."""
    fps = _piece_fingerprints(*rs.pieces)
    groups: dict[tuple, list[Region]] = {}
    for r, fp in zip(rs.regions, fps, strict=True):
        groups.setdefault(fp, []).append(r)
    box = R_MAX if rs.domain is None else float(np.abs(rs.domain).max())
    components = sum(_components(cells, rs.input_dim, box) for cells in groups.values())
    bounds_attached = {}
    if net is not None:
        bounds_attached["arrangement_upper"] = network_arrangement_upper(net)
    return CountReport(cell_count=len(rs.regions),
                       distinct_piece_count=len(groups),
                       connected_piece_count=components,
                       bounds=bounds_attached)


def network_arrangement_upper(net: NetworkSpec) -> int:
    """Layer-by-layer arrangement bound: product over non-affine layers of
    beta(min prefix dim, effective per-unit region counts)."""
    from .bounds import beta
    total = 1
    for l, ns in enumerate(unit_pieces(net)):
        total *= beta(min(net.dims[: l + 1]), ns)
    return total


def regions_containing(rs: RegionSet, x: np.ndarray) -> list[int]:
    """Indices of cells whose half-spaces all hold at ``x`` up to
    ``_ON_ROW_TOL`` (points on facets belong to every touching cell)."""
    x = np.asarray(x, dtype=float)
    out = []
    for i, r in enumerate(rs.regions):
        N, C = _stack_rows(r.rows, rs.input_dim)
        vals = (N[:, None, :] @ x[:, None])[:, 0, 0] + C  # each a.x bit for bit; N @ x is not
        if not (vals < -_ON_ROW_TOL * np.maximum(1.0, row_norms(N))).any():
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# Rendering and export
# ---------------------------------------------------------------------------

def _fingerprint_color(fp: tuple) -> str:
    digest = hashlib.sha256(repr(fp).encode()).digest()
    hue = digest[0] / 255.0
    sat = 0.45 + 0.3 * (digest[1] / 255.0)
    light = 0.55 + 0.25 * (digest[2] / 255.0)
    r, g, b = colorsys.hls_to_rgb(hue, light, sat)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def render_svg(rs: RegionSet) -> str:
    """640 x 640 SVG map of a 2D RegionSet on its domain (the R_MAX box
    when unbounded), drawing each region's polygon as enumeration kept it;
    cells filled by a color hashed from their piece fingerprint, total cell
    count annotated."""
    if rs.input_dim != 2:
        raise ValidationError("rendering requires a 2D region set")
    lo, hi, _ = _normalize_domain(rs.domain, 2)
    width = height = 640
    sx = width / (hi[0] - lo[0])
    sy = height / (hi[1] - lo[1])

    def to_px(p):
        return (p[0] - lo[0]) * sx, height - (p[1] - lo[1]) * sy

    polys = []
    for r, fp in zip(rs.regions, _piece_fingerprints(*rs.pieces), strict=True):
        if r.geom is None:
            raise ValidationError("rendering needs the cells of enumerate_regions")
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(to_px, r.geom.tolist()))
        polys.append(f'<polygon points="{pts}" fill="{_fingerprint_color(fp)}" '
                     f'stroke="#333333" stroke-width="1"/>')
    label = f"({len(polys)})"
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">']
    parts.extend(polys)
    parts.append(f'<text x="10" y="24" font-family="sans-serif" font-size="18" '
                 f'fill="#000000">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def region_set_to_json(rs: RegionSet) -> dict:
    return {
        "input_dim": rs.input_dim,
        "domain": None if rs.domain is None else
            {"lo": rs.domain[0].tolist(), "hi": rs.domain[1].tolist()},
        "regions": [
            {
                "constraints": [{"normal": a.tolist(), "offset": float(c)} for a, c in r.rows],
                "piece": {"matrix": r.piece.matrix.tolist(),
                          "offset": r.piece.offset.tolist()},
                "witness": r.witness.tolist(),
            }
            for r in rs.regions
        ],
    }


def count_report_to_csv(report: CountReport) -> str:
    cols = ["cell_count", "distinct_piece_count", "connected_piece_count"]
    vals = [report.cell_count, report.distinct_piece_count, report.connected_piece_count]
    for k in sorted(report.bounds):
        cols.append(k)
        vals.append(report.bounds[k])
    return ",".join(cols) + "\n" + ",".join(str(v) for v in vals) + "\n"


# ---------------------------------------------------------------------------
# Exact-rational adjudication mode
# ---------------------------------------------------------------------------

def _fractions(x: np.ndarray) -> np.ndarray:
    """``x`` as an object array of the rationals its floats encode;
    infinities (the padding of pointwise breakpoints) stay floats."""
    return np.array([v if math.isinf(v) else Fraction(v) for v in x.ravel().tolist()],
                    dtype=object).reshape(x.shape)


def exact_cell_count(net: NetworkSpec, domain) -> tuple[int, int]:
    """Exact-rational subdivision, in any input dimension, of networks with
    affine, pointwise, maxout and group-sort layers: ``enumerate_regions``'
    loop on the rationals that the float parameters exactly encode, with no
    tolerance. A side of a cut survives iff it has positive measure, and
    distinct pieces compare exactly. Returns (cell_count,
    distinct_piece_count). Adjudication tool: slower than
    ``enumerate_regions`` but immune to tolerance artifacts. Raises
    ``BudgetExceeded`` past ``CELL_BUDGET`` cells.
    """
    if any(isinstance(layer, PWLU2D) for layer in net.layers):
        raise ValidationError("exact mode does not support PWLU2D layers")
    layers = [type(layer)(*(_fractions(p) if isinstance(p, np.ndarray) else p
                            for p in layer.params)) for layer in stack([raw_layers(net)])]
    d = net.input_dim
    lo, hi, _ = _normalize_domain(domain, d)
    cells, A, b = _subdivide(layers, _ExactBackend(), *map(_fractions, (
        lo, hi, np.eye(d)[None], np.zeros((1, d)))), CELL_BUDGET)
    pieces = {tuple(row) for row in np.hstack([A.reshape(len(A), -1), b]).tolist()}
    return len(cells), len(pieces)
