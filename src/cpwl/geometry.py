"""Exact enumeration of the convex cells induced by a CPWL network.

Recursive polyhedral subdivision: start from the whole domain with the
identity piece; per layer, take the layer's switching rows (``switching``)
pulled back through every cell's composed affine map, split each cell by its
rows in order (keeping sides that pass an interior test), then compose every
surviving cell's piece with the layer piece active at its witness, selected
for all of the layer's cells at once.

Backends: exact interval splitting (1 input), convex-polygon clipping
(2 inputs), and an LP feasibility kernel (3+ inputs). Cell processing is
pure and order-independent; the output ordering is canonicalized, so results
are deterministic. The LP kernel calls scipy's HiGHS bindings directly, with
the options and the post-check of ``scipy.optimize.linprog(method="highs")``,
so it returns what linprog would.
"""
from __future__ import annotations

import colorsys
import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.optimize._highspy import _core as _highs

# layer_piece is not called here; it stays importable as geometry.layer_piece,
# where bench/spans.py counts the calls made through this module.
from .core import (Affine, AffineMap, Maxout, NetworkSpec, Pointwise,  # noqa: F401
                   ValidationError, layer_piece)
from .switching import raw_layers, stack, unit_pieces


@dataclass(frozen=True)
class GeometryConfig:
    r_max: float = 1e6            # artificial bounding box for unbounded domains
    eps_interior: float = 1e-7    # minimal interior margin for a cell to count
    dedup_tol: float = 1e-9       # hyperplane deduplication tolerance
    zero_normal_tol: float = 1e-12  # pulled-back normals below this are skipped
    fingerprint_tol: float = 1e-6   # relative rounding for piece fingerprints
    cell_budget: int = 10 ** 6


DEFAULT_CONFIG = GeometryConfig()


class BudgetExceeded(RuntimeError):
    """Cell budget hit during subdivision."""

    def __init__(self, count: int, budget: int):
        super().__init__(f"cell budget exceeded: {count} > {budget}")
        self.count = count
        self.budget = budget


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
    """One subdivision cell: bounding half-spaces, the network's affine piece
    on it, and a strictly interior witness point."""

    constraints: tuple[HalfSpace, ...]
    piece: AffineMap
    witness: np.ndarray


@dataclass
class RegionSet:
    input_dim: int
    regions: list[Region]
    domain: Optional[tuple[np.ndarray, np.ndarray]]  # None = unbounded (R_max box)

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

# The options scipy.optimize.linprog(method="highs") sets (scipy 1.17.1,
# _linprog_highs); every other option keeps its HiGHS default.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.simplex_strategy = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_HIGHS_OPTIONS.highs_debug_level = int(_highs.HighsDebugLevel.kHighsDebugLevelNone)
_HIGHS_OPTIONS.log_to_console = _HIGHS_OPTIONS.output_flag = False
_LP_CHECK_TOL = math.sqrt(1e-9) * 10  # linprog's post-check (_check_result)


def _highs_solve(c, A, lhs, rhs, lb, ub, n_ub: int) -> Optional[np.ndarray]:
    """Minimize c.x s.t. lhs <= A x <= rhs (rows from ``n_ub`` on are
    equalities) and lb <= x <= ub on a fresh HiGHS instance, as linprog does.
    Returns x, or None where linprog reports no success: no optimum, or NaN
    values, or bound, slack or equality residuals past its tolerance."""
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise ValueError("witness LP rows must be finite")
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
    h, error = _highs._Highs(), _highs.HighsStatus.kError
    if (h.passOptions(_HIGHS_OPTIONS) == error or h.passModel(lp) == error
            or h.run() == error or h.getModelStatus() != _highs.HighsModelStatus.kOptimal):
        return None
    sol, t = h.getSolution(), _LP_CHECK_TOL
    x, slack = np.array(sol.col_value), rhs - sol.row_value
    if (np.isnan(x).any() or np.isnan(slack).any() or math.isnan(h.getInfo().objective_function_value)
            or (x < lb - t).any() or (x > ub + t).any() or (slack[:n_ub] < -t).any()
            or (np.abs(slack[n_ub:]) > t).any()):
        return None
    return x


def interior_witness_report(constraints: Sequence[HalfSpace | tuple],
                            cfg: GeometryConfig = DEFAULT_CONFIG,
                            bounds: Optional[tuple[np.ndarray, np.ndarray]] = None,
                            equality: Optional[tuple[np.ndarray, float]] = None,
                            dim: Optional[int] = None) -> Witness:
    """Chebyshev-style LP: maximize eps s.t. a_i.x + c_i >= eps*||a_i|| within
    |x_j| <= R_max (or the given bounds), eps <= R_max.

    Status "interior" iff eps* > eps_interior; "degenerate" for
    0 <= eps* <= eps_interior; "empty" when infeasible or eps* < 0. HiGHS
    solves it as linprog(method="highs") would: presolve on, dual simplex, no
    debug checks or output. As in linprog, an optimum that has NaNs or misses
    a bound, inequality or equality by more than sqrt(1e-9) * 10 is "empty".
    """
    rows = []
    for h in constraints:
        if isinstance(h, HalfSpace):
            rows.append((np.asarray(h.normal, dtype=float), float(h.offset)))
        else:
            rows.append((np.asarray(h[0], dtype=float), float(h[1])))
    if dim is None:
        if rows:
            dim = rows[0][0].shape[0]
        elif bounds is not None:
            dim = np.asarray(bounds[0]).shape[0]
        elif equality is not None:
            dim = np.asarray(equality[0]).shape[0]
        else:
            raise ValidationError("cannot infer dimension for the witness LP")
    if bounds is None:
        lo = np.full(dim, -cfg.r_max)
        hi = np.full(dim, cfg.r_max)
    else:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
    if not rows and equality is None:
        return Witness((lo + hi) / 2.0, cfg.r_max, "interior")
    # Variables (x_1..x_d, eps); maximize eps. Rows -a.x + ||a|| eps <= c,
    # then the equality row a_eq.x = -c_eq.
    A = [np.concatenate([-a, [np.linalg.norm(a)]]) for a, _ in rows]
    rhs = [c for _, c in rows]
    lhs = [-_highs.kHighsInf] * len(rows)
    if equality is not None:
        A.append(np.concatenate([np.asarray(equality[0], dtype=float), [0.0]]))
        rhs.append(-float(equality[1]))
        lhs.append(rhs[-1])
    x = _highs_solve(np.concatenate([np.zeros(dim), [-1.0]]), np.array(A, dtype=float),
                     np.array(lhs), np.array(rhs), np.append(lo, -math.inf),
                     np.append(hi, cfg.r_max), len(rows))
    if x is None:
        return Witness(np.zeros(dim), -math.inf, "empty")
    eps = float(x[-1])
    point = x[:-1]
    if eps > cfg.eps_interior:
        return Witness(point, eps, "interior")
    if eps >= 0.0:
        return Witness(point, eps, "degenerate")
    return Witness(point, eps, "empty")


def interior_witness(constraints: Sequence[HalfSpace | tuple],
                     cfg: GeometryConfig = DEFAULT_CONFIG,
                     dim: Optional[int] = None) -> Optional[Witness]:
    """Interior point of the half-space intersection, or None when the
    interior is empty or thinner than the configured margin."""
    w = interior_witness_report(constraints, cfg, dim=dim)
    return w if w.status == "interior" else None


# ---------------------------------------------------------------------------
# Subdivision cells and backends
# ---------------------------------------------------------------------------

@dataclass
class _Cell:
    constraints: list
    witness: np.ndarray
    geom: object


def _normalize_domain(domain, d: int, r_max: float):
    """Returns (lo, hi, bounded)."""
    if domain is None:
        return np.full(d, -r_max), np.full(d, r_max), False
    lo, hi = domain
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (d,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (d,)).copy()
    if not np.all(lo < hi):
        raise ValidationError("domain box must have positive extent")
    return lo, hi, True


class _IntervalBackend:
    """d = 1: cells are intervals (lo, hi)."""

    def __init__(self, cfg: GeometryConfig):
        self.cfg = cfg

    def root(self, lo, hi):
        return (float(lo[0]), float(hi[0])), np.array([(lo[0] + hi[0]) / 2.0])

    def split(self, cell: _Cell, a: np.ndarray, c: float):
        lo, hi = cell.geom
        aa = float(a[0])
        t = -c / aa
        eps = self.cfg.eps_interior * max(1.0, abs(t))
        if not (lo + eps < t < hi - eps):
            return None
        left = ((lo, t), np.array([(lo + t) / 2.0]))
        right = ((t, hi), np.array([(t + hi) / 2.0]))
        neg, pos = (right, left) if aa < 0 else (left, right)
        return (neg[0], neg[1]), (pos[0], pos[1])


def _clip_polygon(verts: np.ndarray, a: np.ndarray, c: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Split a convex polygon by the line a.x + c = 0; returns (neg, pos)
    vertex arrays (either may be empty)."""
    vals = verts @ a + c
    n = len(verts)
    neg, pos = [], []
    for i in range(n):
        j = (i + 1) % n
        vi, vj = vals[i], vals[j]
        p = verts[i]
        if vi <= 0:
            neg.append(p)
        if vi >= 0:
            pos.append(p)
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            q = p + t * (verts[j] - p)
            neg.append(q)
            pos.append(q)
    return np.array(neg) if neg else np.empty((0, 2)), np.array(pos) if pos else np.empty((0, 2))


def _polygon_area_perimeter(verts: np.ndarray) -> tuple[float, float]:
    if len(verts) < 3:
        return 0.0, 0.0
    x, y = verts[:, 0], verts[:, 1]
    xr, yr = np.concatenate([x[1:], x[:1]]), np.concatenate([y[1:], y[:1]])
    area = 0.5 * abs(np.dot(x, yr) - np.dot(y, xr))
    per = float(np.sum(np.linalg.norm(np.concatenate([verts[1:], verts[:1]]) - verts, axis=1)))
    return float(area), per


def _polygon_centroid(verts: np.ndarray) -> np.ndarray:
    x, y = verts[:, 0], verts[:, 1]
    xr, yr = np.concatenate([x[1:], x[:1]]), np.concatenate([y[1:], y[:1]])
    cross = x * yr - xr * y
    a = cross.sum() / 2.0
    if abs(a) < 1e-300:
        return verts.mean(axis=0)
    cx = ((x + xr) * cross).sum() / (6.0 * a)
    cy = ((y + yr) * cross).sum() / (6.0 * a)
    return np.array([cx, cy])


class _PolygonBackend:
    """d = 2: cells are convex polygons, split by Sutherland-Hodgman clipping.

    A clipped side survives if its area/perimeter ratio (a lower bound on the
    inradius: eroding a convex set by t removes at most perimeter*t of area)
    exceeds the interior margin.
    """

    def __init__(self, cfg: GeometryConfig):
        self.cfg = cfg

    def root(self, lo, hi):
        verts = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
        return verts, verts.mean(axis=0)

    def _admissible(self, verts: np.ndarray) -> bool:
        if len(verts) < 3:
            return False
        area, per = _polygon_area_perimeter(verts)
        return per > 0 and area / per > self.cfg.eps_interior

    def split(self, cell: _Cell, a: np.ndarray, c: float):
        verts = cell.geom
        vals = verts @ a + c
        scale = np.linalg.norm(a)
        m = self.cfg.eps_interior * scale
        if vals.min() >= -m or vals.max() <= m:
            return None  # clearly one-sided (possibly touching)
        neg, pos = _clip_polygon(verts, a, c)
        if not self._admissible(neg) or not self._admissible(pos):
            return None
        return (neg, _polygon_centroid(neg)), (pos, _polygon_centroid(pos))


class _LPBackend:
    """d >= 3: a cell is its constraint list inside the domain box; a split
    solves the witness LP on both sides."""

    def __init__(self, cfg: GeometryConfig):
        self.cfg = cfg

    def root(self, lo, hi):
        return (lo, hi), (lo + hi) / 2.0

    def split(self, cell: _Cell, a: np.ndarray, c: float):
        pos_w = interior_witness_report(cell.constraints + [(a, c)], self.cfg, bounds=cell.geom)
        neg_w = interior_witness_report(cell.constraints + [(-a, -c)], self.cfg, bounds=cell.geom)
        if pos_w.status != "interior" or neg_w.status != "interior":
            return None
        return (cell.geom, neg_w.point), (cell.geom, pos_w.point)


def _backend_for(d: int, cfg: GeometryConfig):
    if d == 1:
        return _IntervalBackend(cfg)
    if d == 2:
        return _PolygonBackend(cfg)
    return _LPBackend(cfg)


# ---------------------------------------------------------------------------
# Splitting a cell by one layer
# ---------------------------------------------------------------------------

def _hyperplane_key(a: np.ndarray, c: float, tol: float, signed: bool = False) -> tuple:
    """(a, c) over ||a||, rounded at ``tol``; unless ``signed``, the sign is
    fixed so that (a, c) and (-a, -c) share one key."""
    nrm = np.linalg.norm(a)
    v = np.concatenate([a, [c]]) / nrm
    for x in v[:-1]:
        if abs(x) > tol:
            if x < 0 and not signed:
                v = -v
            break
    digits = max(0, int(round(-math.log10(tol))))
    return tuple(np.round(v, digits))


def _clip_positive(backend, p: "_Cell", a: np.ndarray, c: float):
    """Clip cell ``p`` to the side {a.x + c >= 0}: returns ``p`` itself when
    the cell (up to slivers) already lies there, ``None`` when essentially
    nothing does, or a new smaller cell. Sliver sides follow the witness, so
    geometry is never shaved off without an actual crossing."""
    res = backend.split(p, a, c)
    if res is None:
        return p if float(a @ p.witness + c) > 0.0 else None
    (_, _), (g_pos, w_pos) = res
    return _Cell(p.constraints + [(a, c)], w_pos, g_pos)


def _maxout_parts(backend, cell: "_Cell", R: np.ndarray, s: np.ndarray,
                  cfg: GeometryConfig) -> list["_Cell"]:
    """Subdivide a cell into the argmax regions of every maxout unit, given
    the units' candidates pulled back through the cell's piece, ``R``
    (units, rank, d) and ``s`` (units, rank).

    Each unit contributes at most ``rank`` subcells per part (one per
    candidate attaining the max somewhere), so the subdivision never refines
    beyond the unit's actual fold set — pairwise tie hyperplanes where
    neither candidate attains the max are not folds and must not split."""
    parts = [cell]
    for Ru, su in zip(R, s):
        tol = cfg.zero_normal_tol * max(1.0, float(np.abs(Ru).max()))
        new_parts = []
        for p in parts:
            kept = []
            for j in range(len(su)):
                q = p
                for i in range(len(su)):
                    if i == j:
                        continue
                    a, c = Ru[j] - Ru[i], float(su[j] - su[i])
                    if np.abs(a).max() < tol:
                        # Dominated everywhere, or an identical candidate: first wins.
                        if c < -tol or (abs(c) <= tol and i < j):
                            break
                        continue
                    q = _clip_positive(backend, q, a, c)
                    if q is None:
                        break
                else:
                    kept.append(q)
            new_parts += kept if len(kept) > 1 else [p]  # else the unit is affine on p
        parts = new_parts
    return parts


def _split_by_rows(backend, cell: "_Cell", N: np.ndarray, C: np.ndarray, layer,
                   piece: tuple, cfg: GeometryConfig, done: int) -> list["_Cell"]:
    """Split a cell by its switching rows ``N x + C = 0`` in order, skipping
    near-zero normals (the piece is then constant on the cell), padding rows
    and repeats. A guarded row splits only parts whose witness the cell's
    ``piece`` maps inside its unit's clamp box. ``done`` cells of the layer
    count against the budget already."""
    guard = layer.guard
    live = (np.abs(N).max(axis=1) >= cfg.zero_normal_tol) & np.isfinite(C)
    parts, seen = [cell], set()
    for r in live.nonzero()[0]:
        a, c = N[r], float(C[r])
        key = _hyperplane_key(a, c, cfg.dedup_tol)
        if key in seen:
            continue
        seen.add(key)
        new_parts = []
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
        if done + len(parts) > cfg.cell_budget:
            raise BudgetExceeded(done + len(parts), cfg.cell_budget)
    return parts


# ---------------------------------------------------------------------------
# Main enumeration
# ---------------------------------------------------------------------------

def enumerate_regions(net: NetworkSpec, domain=None,
                      cfg: GeometryConfig = DEFAULT_CONFIG) -> RegionSet:
    """Subdivide the domain into the network's convex linear cells.

    ``domain`` is None (unbounded; an R_max box bounds the search) or a box
    ``(lo, hi)`` with scalars or per-coordinate arrays. Raises
    ``BudgetExceeded`` past ``cfg.cell_budget`` cells.
    """
    d = net.input_dim
    lo, hi, bounded = _normalize_domain(domain, d, cfg.r_max)
    backend = _backend_for(d, cfg)
    geom, w = backend.root(lo, hi)
    cells = [_Cell([], w, geom)]
    A, b = np.eye(d)[None], np.zeros((1, d))  # every cell's piece, stacked
    for layer in stack([raw_layers(net)]):
        maxout = layer.kind is Maxout  # per cell: its candidates, or else its rows
        N, C = layer.candidates(A, b) if maxout else layer.rows(A, b)
        out_cells, parent = [], []
        for i, cell in enumerate(cells):
            if maxout:
                parts = _maxout_parts(backend, cell, N[i], C[i], cfg)
                if len(out_cells) + len(parts) > cfg.cell_budget:
                    raise BudgetExceeded(len(out_cells) + len(parts), cfg.cell_budget)
            else:
                parts = _split_by_rows(backend, cell, N[i], C[i], layer, (A[i], b[i]), cfg,
                                       len(out_cells))
            out_cells.extend(parts)
            parent += [i] * len(parts)
        cells, A, b = out_cells, A[parent], b[parent]
        Z = (A @ np.array([cell.witness for cell in cells])[..., None])[..., 0] + b
        A, b = layer.compose(A, b, Z, np.zeros_like(Z))
    order = sorted(range(len(cells)), key=lambda i: (tuple(np.round(cells[i].witness, 9)),
                                                     len(cells[i].constraints)))
    regions = [Region(tuple(HalfSpace(a, c) for a, c in cells[i].constraints),
                      AffineMap(A[i], b[i]), cells[i].witness.copy()) for i in order]
    return RegionSet(d, regions, (lo, hi) if bounded else None)


def piece_fingerprint(piece: AffineMap, tol: float = DEFAULT_CONFIG.fingerprint_tol) -> tuple:
    """Quantized (matrix, offset) key; equal pieces map to equal keys, pieces
    differing by more than the relative tolerance map to different keys."""
    flat = np.concatenate([piece.matrix.ravel(), piece.offset.ravel()])
    scale = max(1.0, float(np.abs(flat).max()))
    q = tol * scale
    return tuple(np.round(flat / q).astype(np.int64).tolist())


def _domain_halfspaces(rs: RegionSet) -> list[tuple[np.ndarray, float]]:
    if rs.domain is None:
        return []
    lo, hi = rs.domain
    out = []
    for j in range(rs.input_dim):
        e = np.zeros(rs.input_dim)
        e[j] = 1.0
        out.append((e.copy(), -float(lo[j])))
        out.append((-e, float(hi[j])))
    return out


def _facet_adjacent(p: Region, q: Region, rs: RegionSet, cfg: GeometryConfig) -> bool:
    """Two cells share a (d-1)-face only if exactly one hyperplane separates
    them: a row (a, c) of one cell whose negation (-a, -c) is a row of the
    other. A split gives its two children exactly negated rows, so the split
    that parted the two lineages always shows; two distinct separating
    hyperplanes leave at most a (d-2)-flat in common. With exactly one, the
    cells share a facet iff that hyperplane, taken as an equality, leaves an
    interior point of every other row of both cells and the domain."""
    q_keys = {_hyperplane_key(-h.normal, -h.offset, cfg.dedup_tol, signed=True)
              for h in q.constraints}
    seps = {}
    for h in p.constraints:
        key = _hyperplane_key(h.normal, h.offset, cfg.dedup_tol, signed=True)
        if key in q_keys:
            seps.setdefault(key, h)
    if len(seps) != 1:
        return False
    (h,) = seps.values()
    key = _hyperplane_key(h.normal, h.offset, cfg.dedup_tol)
    rows = [(g.normal, g.offset) for g in p.constraints + q.constraints] + _domain_halfspaces(rs)
    rest = [(a, c) for a, c in rows if _hyperplane_key(a, c, cfg.dedup_tol) != key]
    w = interior_witness_report(rest, cfg, equality=(h.normal, h.offset), dim=rs.input_dim)
    return w.status == "interior"


def count_report(rs: RegionSet, net: Optional[NetworkSpec] = None,
                 cfg: GeometryConfig = DEFAULT_CONFIG) -> CountReport:
    """Cell count, distinct affine pieces, and connected components of
    equal-piece cells under facet adjacency."""
    fps = [piece_fingerprint(r.piece, cfg.fingerprint_tol) for r in rs.regions]
    groups: dict[tuple, list[int]] = {}
    for i, fp in enumerate(fps):
        groups.setdefault(fp, []).append(i)
    # Union-find over same-piece facet adjacency.
    parent = list(range(len(rs.regions)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for idxs in groups.values():
        for ii in range(len(idxs)):
            for jj in range(ii + 1, len(idxs)):
                a, b = idxs[ii], idxs[jj]
                if find(a) == find(b):
                    continue
                if _facet_adjacent(rs.regions[a], rs.regions[b], rs, cfg):
                    parent[find(a)] = find(b)
    components = len({find(i) for i in range(len(rs.regions))})
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


def regions_containing(rs: RegionSet, x: np.ndarray, tol: float = 1e-9) -> list[int]:
    """Indices of cells whose half-spaces all hold at ``x`` within tolerance
    (points on facets belong to every touching cell)."""
    x = np.asarray(x, dtype=float)
    out = []
    for i, r in enumerate(rs.regions):
        ok = True
        for h in r.constraints:
            if h.normal @ x + h.offset < -tol * max(1.0, float(np.linalg.norm(h.normal))):
                ok = False
                break
        if ok:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# Rendering and export
# ---------------------------------------------------------------------------

def _region_polygon(region: Region, box: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    lo, hi = box
    verts = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    for h in region.constraints:
        _, verts = _clip_polygon(verts, h.normal, h.offset)
        if len(verts) < 3:
            return np.empty((0, 2))
    return verts


def _fingerprint_color(fp: tuple) -> str:
    digest = hashlib.sha256(repr(fp).encode()).digest()
    hue = digest[0] / 255.0
    sat = 0.45 + 0.3 * (digest[1] / 255.0)
    light = 0.55 + 0.25 * (digest[2] / 255.0)
    r, g, b = colorsys.hls_to_rgb(hue, light, sat)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def render_svg(rs: RegionSet, box, style: Optional[dict] = None) -> str:
    """SVG map of a 2D RegionSet clipped to ``box``; cells filled by a color
    hashed from their piece fingerprint, total cell count annotated."""
    if rs.input_dim != 2:
        raise ValidationError("rendering requires a 2D region set")
    lo, hi, _ = _normalize_domain(box, 2, DEFAULT_CONFIG.r_max)
    style = style or {}
    width = style.get("width", 640)
    height = style.get("height", 640)
    sx = width / (hi[0] - lo[0])
    sy = height / (hi[1] - lo[1])

    def to_px(p):
        return (p[0] - lo[0]) * sx, height - (p[1] - lo[1]) * sy

    polys = []
    for r in rs.regions:
        verts = _region_polygon(r, (lo, hi))
        if len(verts) < 3:
            continue
        fp = piece_fingerprint(r.piece)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(v) for v in verts))
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
                "constraints": [{"normal": h.normal.tolist(), "offset": h.offset}
                                for h in r.constraints],
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
# Exact-rational adjudication mode (d <= 2, affine + pointwise layers)
# ---------------------------------------------------------------------------

def _frac_clip(verts: list, a: list, c: Fraction):
    vals = [a[0] * v[0] + (a[1] * v[1] if len(v) > 1 else 0) + c for v in verts]
    n = len(verts)
    neg, pos = [], []
    for i in range(n):
        j = (i + 1) % n
        vi, vj = vals[i], vals[j]
        p = verts[i]
        if vi <= 0:
            neg.append(p)
        if vi >= 0:
            pos.append(p)
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            q = tuple(p[k] + t * (verts[j][k] - p[k]) for k in range(len(p)))
            neg.append(q)
            pos.append(q)
    return neg, pos


def _frac_area2(verts: list) -> Fraction:
    s = Fraction(0)
    for i in range(len(verts)):
        j = (i + 1) % len(verts)
        s += verts[i][0] * verts[j][1] - verts[j][0] * verts[i][1]
    return abs(s)


def exact_cell_count(net: NetworkSpec, domain) -> tuple[int, int]:
    """Exact-rational subdivision for 1D/2D networks with affine and
    pointwise layers only: every float input is treated as the rational it
    exactly encodes, splits are decided by exact arithmetic (a side survives
    iff it has positive measure), and distinct pieces compare exactly.
    Returns (cell_count, distinct_piece_count). Adjudication tool: slower
    than ``enumerate_regions`` but immune to tolerance artifacts.
    """
    d = net.input_dim
    if d > 2:
        raise ValidationError("exact mode supports 1 or 2 inputs")
    for layer in net.layers:
        if not isinstance(layer, (Affine, Pointwise)):
            raise ValidationError("exact mode supports affine and pointwise layers only")
    lo, hi, _ = _normalize_domain(domain, d, DEFAULT_CONFIG.r_max)
    F = Fraction
    if d == 1:
        cells = [((F(lo[0]), F(hi[0])), [[F(1)]], [F(0)])]
    else:
        box = [(F(lo[0]), F(lo[1])), (F(hi[0]), F(lo[1])),
               (F(hi[0]), F(hi[1])), (F(lo[0]), F(hi[1]))]
        cells = [(box, [[F(1), F(0)], [F(0), F(1)]], [F(0), F(0)])]

    def mid(geom):
        if d == 1:
            return [(geom[0] + geom[1]) / 2]
        sx = sum(v[0] for v in geom) / len(geom)
        sy = sum(v[1] for v in geom) / len(geom)
        return [sx, sy]

    for layer in net.layers:
        if isinstance(layer, Affine):
            M = [[F(x) for x in row] for row in layer.map.matrix.tolist()]
            o = [F(x) for x in layer.map.offset.tolist()]
            cells = [(geom,
                      [[sum(M[i][k] * A[k][j] for k in range(len(A))) for j in range(d)]
                       for i in range(len(M))],
                      [sum(M[i][k] * b[k] for k in range(len(b))) + o[i]
                       for i in range(len(M))])
                     for geom, A, b in cells]
            continue
        new_cells = []
        for geom, A, b in cells:
            parts = [geom]
            for k, f in enumerate(layer.units):
                for brk in f.breakpoints:
                    a_row = A[k]
                    c_off = b[k] - F(brk)
                    next_parts = []
                    for g in parts:
                        if d == 1:
                            aa = a_row[0]
                            if aa == 0:
                                next_parts.append(g)
                                continue
                            t = -c_off / aa
                            if g[0] < t < g[1]:
                                next_parts.append((g[0], t))
                                next_parts.append((t, g[1]))
                            else:
                                next_parts.append(g)
                        else:
                            if a_row[0] == 0 and a_row[1] == 0:
                                next_parts.append(g)
                                continue
                            neg, pos = _frac_clip(g, a_row, c_off)
                            if len(neg) >= 3 and _frac_area2(neg) > 0 and \
                                    len(pos) >= 3 and _frac_area2(pos) > 0:
                                next_parts.append(neg)
                                next_parts.append(pos)
                            else:
                                next_parts.append(g)
                    parts = next_parts
            for g in parts:
                w = mid(g)
                z = [sum(A[i][k] * w[k] for k in range(d)) + b[i] for i in range(len(b))]
                A2, b2 = [], []
                for i, f in enumerate(layer.units):
                    idx = 0
                    for brk in f.breakpoints:
                        if z[i] > F(brk):
                            idx += 1
                        else:
                            break
                    s, c0 = f.piece_line(idx)
                    A2.append([F(s) * A[i][k] for k in range(d)])
                    b2.append(F(s) * b[i] + F(c0))
                new_cells.append((g, A2, b2))
        cells = new_cells
    pieces = {tuple(tuple(row) for row in A) + tuple(b) for _, A, b in cells}
    return len(cells), len(pieces)
