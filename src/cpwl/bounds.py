"""Closed-form region-count bounds in exact big-integer arithmetic.

All calculators work on small integer descriptors and return Python ints
(or exact ``Fraction`` values where a formula is genuinely rational), so no
bound ever suffers floating-point rounding.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import ValidationError

# Widths up to this size get exhaustive channel-assignment search (subject to
# a branching-work cap); larger layers fall back to a greedy balance (still a
# valid lower bound).
EXACT_ASSIGNMENT_WIDTH = 12
EXACT_ASSIGNMENT_WORK = 400_000


def _integer(name: str, value, low: int = 1) -> int:
    """``value``, an integer (Python or numpy, not a bool) >= ``low``, as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _dims(dims) -> tuple[int, ...]:
    """Layer dimensions, input first: two or more integers >= 1."""
    out = tuple(_integer("a dimension", d) for d in dims) if hasattr(dims, "__iter__") else ()
    if len(out) < 2:
        raise ValidationError(f"dims must list at least input and output, got {dims!r}")
    return out


def beta(d: int, ns: Sequence[int]) -> int:
    """Arrangement-style upper bound for the regions of a sum/stack of units.

    ``beta = sum_{k=0}^{min(d, N)} e_k(n_1 - 1, ..., n_N - 1)`` where ``e_k``
    is the elementary symmetric polynomial; equals ``prod n_i`` when N <= d.
    """
    if d < 0:
        raise ValidationError("dimension must be >= 0")
    ns = list(ns)
    if any(int(n) != n or n < 1 for n in ns):
        raise ValidationError("unit region counts must be integers >= 1")
    vals = [int(n) - 1 for n in ns]
    top = min(d, len(vals))
    # Truncated product of (1 + v*x): coefficients are e_0..e_top.
    coeffs = [1] + [0] * top
    for v in vals:
        for k in range(top, 0, -1):
            coeffs[k] += v * coeffs[k - 1]
    return sum(coeffs)


def beta_uniform(d: int, n_units: int, n: int) -> int:
    """``beta`` with all units equal: ``sum_k C(N, k) (n - 1)^k``."""
    return sum(math.comb(n_units, k) * (n - 1) ** k
               for k in range(min(d, n_units) + 1))


def beta_simplified(d: int, n_units: int, n: int) -> tuple[int, int]:
    """Two coarser closed forms that dominate the uniform ``beta``:
    ``(n^N, (1 + N (n - 1))^d)``."""
    if d < 0 or n_units < 0 or n < 1:
        raise ValidationError("need d >= 0, N >= 0, n >= 1")
    return n ** n_units, (1 + n_units * (n - 1)) ** d


def projection_to_convex_cap(rho: int, d: int) -> int:
    """Upper bound on the minimal convex-partition size given ``rho`` distinct
    affine pieces: hyperplanes from all piece pairs, ``H = rho (rho - 1) / 2``,
    give ``2^H`` when ``H <= d`` else ``sum_{k<=d} C(H, k)``."""
    if rho < 1 or d < 1:
        raise ValidationError("rho and d must be >= 1")
    H = rho * (rho - 1) // 2
    if H <= d:
        return 2 ** H
    return sum(math.comb(H, k) for k in range(d + 1))


@dataclass(frozen=True)
class ArchitectureDescriptor:
    """Layer dimensions plus per-unit region counts.

    ``dims`` has length ``depth + 1`` (input dim first); ``kappas[l]`` lists
    one region count per unit of layer ``l`` (length ``dims[l + 1]``).
    """

    dims: tuple[int, ...]
    kappas: tuple[tuple[int, ...], ...]
    family: str = "generic"

    def __post_init__(self):
        dims = _dims(self.dims)
        kappas = tuple(tuple(int(k) for k in row) for row in self.kappas)
        if len(kappas) != len(dims) - 1:
            raise ValidationError("need one kappa row per layer")
        for l, row in enumerate(kappas):
            if len(row) != dims[l + 1]:
                raise ValidationError(f"layer {l}: {len(row)} kappas for width {dims[l + 1]}")
            if any(k < 1 for k in row):
                raise ValidationError("unit region counts must be >= 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "kappas", kappas)

    @property
    def depth(self) -> int:
        return len(self.dims) - 1

    @property
    def d_star(self) -> int:
        return min(self.dims)

    @classmethod
    def uniform(cls, d_in: int, width: int, d_out: int, n_blocks: int, kappa: int,
                family: str = "generic") -> "ArchitectureDescriptor":
        """``n_blocks`` activation layers of ``width`` units of count ``kappa``
        followed by an affine readout (kappa 1 per output)."""
        dims = (d_in,) + (width,) * n_blocks + (d_out,)
        kappas = tuple((kappa,) * width for _ in range(n_blocks)) + ((1,) * d_out,)
        return cls(dims, kappas, family)


def layer_factors(dims: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
    """Per-layer arrangement factors ``beta(min(dims[:l + 1]), rows[l])``:
    layer l's units, of ``rows[l]`` regions each, over the fewest inputs
    any layer before it passes on. An empty row (an affine layer) is 1."""
    return [beta(min(dims[: l + 1]), row) for l, row in enumerate(rows)]


def compositional_upper_factors(arch: ArchitectureDescriptor) -> list[int]:
    """``layer_factors`` of the descriptor."""
    return layer_factors(arch.dims, arch.kappas)


def compositional_upper(arch: ArchitectureDescriptor) -> int:
    """Product of per-layer arrangement bounds; upper-bounds the exact
    subdivision cell count of any network matching the descriptor."""
    return math.prod(compositional_upper_factors(arch))


@dataclass(frozen=True)
class ChannelAssignment:
    """Per-layer map from unit index to channel index in ``range(d_star)``."""

    d_star: int
    per_layer: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AlphaReport:
    """Both lower-bound variants with their maximizing channel assignments."""

    paper_value: int
    constructive_value: int
    paper_assignment: ChannelAssignment
    constructive_assignment: ChannelAssignment
    exact: bool  # False when any layer used the greedy heuristic


def _best_assignment(weights: list[int], n_channels: int, base: int,
                     surjective: bool) -> tuple[int, tuple[int, ...], bool]:
    """Maximize ``prod_r (base + sum of weights in channel r)`` over
    assignments of weights to ``n_channels`` channels.

    ``surjective`` forces every channel nonempty. Returns
    ``(score, assignment, exact)`` with the assignment indexed like
    ``weights``. Exhaustive with symmetry pruning for small inputs, greedy
    balance otherwise (a valid lower bound either way since any assignment
    is admissible).
    """
    n = len(weights)
    if surjective and n < n_channels:
        raise ValidationError(f"cannot spread {n} units over {n_channels} nonempty channels")
    order = sorted(range(n), key=lambda i: -weights[i])
    if n <= EXACT_ASSIGNMENT_WIDTH and n_channels ** n <= EXACT_ASSIGNMENT_WORK:
        best_score = -1
        best_assign: tuple[int, ...] = ()
        sums = [0] * n_channels
        counts = [0] * n_channels
        assign = [0] * n

        def rec(i: int):
            nonlocal best_score, best_assign
            empty = sum(1 for c in counts if c == 0)
            if surjective and n - i < empty:
                return  # cannot fill the remaining empty channels
            if i == n:
                score = math.prod(base + s for s in sums)
                if score > best_score:
                    best_score = score
                    best_assign = tuple(assign)
                return
            seen = set()
            for r in range(n_channels):
                key = (sums[r], counts[r] == 0)
                if key in seen:
                    continue  # symmetric channel, identical subtree
                seen.add(key)
                sums[r] += weights[order[i]]
                counts[r] += 1
                assign[order[i]] = r
                rec(i + 1)
                sums[r] -= weights[order[i]]
                counts[r] -= 1

        rec(0)
        return best_score, best_assign, True
    # Greedy: largest weight into the currently smallest channel. Balanced
    # sums maximize the product for a fixed total, so this is near-optimal.
    sums = [0] * n_channels
    assign = [0] * n
    for rank, i in enumerate(order):
        if surjective and rank < n_channels:
            r = rank
        else:
            r = min(range(n_channels), key=lambda q: sums[q])
        sums[r] += weights[i]
        assign[i] = r
    return math.prod(base + s for s in sums), tuple(assign), False


def alpha_report(arch: ArchitectureDescriptor) -> AlphaReport:
    """Maximal per-layer channel-product lower bounds.

    Channels: ``d_star = min(dims)`` independent coordinates threaded through
    the network. Layer ``l`` contributes, over a unit-to-channel assignment
    ``tau``, the product over channels of either the kappa sum (paper variant,
    all channels nonempty) or ``1 + sum (kappa - 1)`` (constructive variant,
    the count a sawtooth-style network attains). Both products multiply over
    layers; each is a lower bound on the maximal cell count over networks
    matching the descriptor.
    """
    m = arch.d_star
    paper_total, constructive_total = 1, 1
    paper_assigns, constructive_assigns = [], []
    exact = True
    for row in arch.kappas:
        p_score, p_assign, p_exact = _best_assignment(list(row), m, base=0, surjective=True)
        # Surjectivity is lossless for the constructive score: moving a unit of
        # weight w from a channel summing to s >= w onto an empty channel turns
        # (1+s)*1 into (1+s-w)(1+w) = 1 + s + w(s-w) >= 1 + s. It also lets the
        # sawtooth construction thread every channel through every layer.
        c_score, c_assign, c_exact = _best_assignment([k - 1 for k in row], m, base=1, surjective=True)
        exact = exact and p_exact and c_exact
        paper_total *= p_score
        constructive_total *= c_score
        paper_assigns.append(p_assign)
        constructive_assigns.append(c_assign)
    return AlphaReport(
        paper_value=paper_total,
        constructive_value=constructive_total,
        paper_assignment=ChannelAssignment(m, tuple(paper_assigns)),
        constructive_assignment=ChannelAssignment(m, tuple(constructive_assigns)),
        exact=exact,
    )


def alpha_lower_paper(arch: ArchitectureDescriptor) -> int:
    return alpha_report(arch).paper_value


def alpha_lower_constructive(arch: ArchitectureDescriptor) -> int:
    return alpha_report(arch).constructive_value


@dataclass(frozen=True)
class EnvelopeReport:
    """Uniform-architecture envelope for 1-hidden-width-W blocks."""

    lower_paper: int
    lower_constructive: int
    upper: int
    warnings: tuple[str, ...] = ()


def corollary_envelope(d_in: int, width: int, d_out: int, depth: int, kappa: int
                       ) -> EnvelopeReport:
    """Envelope for depth-``depth`` networks of uniform width and unit count.

    ``d* = min(d_in, d_out)``;
    lower_paper = (kappa * floor(W / d*))^(depth * d*),
    lower_constructive = (1 + floor(W / d*) * (kappa - 1))^(depth * d*),
    upper = (kappa * W)^(depth * d_in). Requires ``W >= d_in``.
    """
    if min(d_in, width, d_out, depth, kappa) < 1:
        raise ValidationError("all envelope parameters must be >= 1")
    if width < d_in:
        raise ValidationError(f"width {width} must be >= input dim {d_in}")
    warnings = ()
    if d_out > width:
        warnings = (f"output dim {d_out} exceeds width {width}; lower bound may be slack",)
    d_star = min(d_in, d_out)
    per = width // d_star
    return EnvelopeReport(
        lower_paper=(kappa * per) ** (depth * d_star),
        lower_constructive=(1 + per * (kappa - 1)) ** (depth * d_star),
        upper=(kappa * width) ** (depth * d_in),
        warnings=warnings,
    )


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with its inputs and any companion values."""

    family: str
    params: dict
    value: int
    extras: dict = field(default_factory=dict)


def _groupsort_activation(d: int, g: int) -> tuple[int, dict]:
    if d % g:
        raise ValidationError(f"dimension {d} not divisible by group size {g}")
    # The envelope's lower end is exact for even d, a float for odd d.
    low = Fraction(g, 2) ** (d // 2) if d % 2 == 0 else (g / 2) ** (d / 2)
    return math.factorial(g) ** (d // g), {"envelope_lower": low, "envelope_upper": g ** d}


def _net(dims: tuple, row) -> tuple[int, dict]:
    """The ``layer_factors`` bound of a net whose width-w layers have the
    units ``row(w)``, with the factors in extras."""
    factors = layer_factors(dims, [row(w) for w in dims[1:]])
    return math.prod(factors), {"factors": factors}


# Every named architecture family: its parameter names, and its bound as a
# function of them (in that order), a value or (value, extras). Each
# parameter is an integer >= 1, but ``grid_m`` >= 2 (as ``PWLU2D`` needs) and
# ``dims``, the layer dimensions input first (as ``ArchitectureDescriptor``
# takes them).
FAMILIES = {
    # sum_{k <= min(d, N)} C(N, k)
    "ridge": (("d", "n_units"), lambda d, n: beta_uniform(d, n, 2)),
    # sum_k C(out_dim, k) (pool_size - 1)^k
    "max_pooling": (("d", "out_dim", "pool_size"), beta_uniform),
    # sum_k C(N, k) d^k
    "ghh": (("d", "n_units"), lambda d, n: beta_uniform(d, n, d + 1)),
    "sort": (("d",), math.factorial),
    # (g!)^(d/g), with the rational envelope ((g/2)^(d/2), g^d) in extras
    "groupsort_activation": (("d", "group_size"), _groupsort_activation),
    "pwlu_unit": (("grid_m",), lambda m: 2 * (m - 1) ** 2),
    # sum_k C(N, k) (2 (M - 1)^2 - 1)^k
    "pwlu_layer": (("d", "n_units", "grid_m"), lambda d, n, m: beta_uniform(d, n, 2 * (m - 1) ** 2)),
    # layer_factors of units of 2, kappa, rank or g! regions; a groupsort layer
    # whose width g does not divide is affine (an empty row, factor 1)
    "relu_net": (("dims",), lambda dims: _net(dims, lambda w: [2] * w)),
    "deepspline_net": (("dims", "kappa"), lambda dims, k: _net(dims, lambda w: [k] * w)),
    "maxout_net": (("dims", "rank"), lambda dims, k: _net(dims, lambda w: [k] * w)),
    "groupsort_net": (("dims", "group_size"), lambda dims, g: _net(
        dims, lambda w: [] if w % g else [math.factorial(g)] * (w // g))),
}


def architecture_bound(family: str, **params) -> BoundReport:
    """The region bound of a named family of ``FAMILIES`` from its
    parameters. Raises ``ValidationError`` for an unknown family, or for a
    parameter that is missing, unexpected or out of range."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    names, formula = FAMILIES[family]
    if set(params) != set(names):
        raise ValidationError(f"family {family!r} takes {', '.join(names)}, got {sorted(params)}")
    out = formula(*(_dims(params[n]) if n == "dims" else _integer(n, params[n], 2 if n == "grid_m" else 1)
                    for n in names))
    value, extras = out if isinstance(out, tuple) else (out, {})
    return BoundReport(family, dict(params), value, extras)
