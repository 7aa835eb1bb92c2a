"""Random network sampling and Monte Carlo estimation of knot density,
directional expansion, and image length, against the closed-form bounds.

Determinism: every random stream is a counter-based Philox stream keyed as
``Philox(SeedSequence(entropy, spawn_key=...))`` keys it. Trial t of an
estimate draws its network from the trial seed seed_t = (seed; t), layer l
from the stream (seed_t; l), its probe from (seed; t, 1 << 20) and the input
and direction of its expansion sample from (seed; t, 1 << 21), so every value
depends only on the seed and its trial. The keys of all the streams of one
estimate are derived together, by a port of numpy's SeedSequence to uint32
arrays that the tests pin against numpy's own; each draw then re-keys one
Philox, so the streams are numpy's. A spline layer is one draw on its
stream: per unit, its breakpoints, slopes and anchor, as a draw unit by unit
lays them out, and the tables of a block's spline layers are made from those
arrays at once. A net whose draw unit by unit would differ (sorted
breakpoints within 1e-9 are drawn again) or whose pieces ``ScalarCPWL`` would
merge is drawn again unit by unit, from the start of its streams. The Monte
Carlo estimators draw each block of trials straight into stacked layers
(``switching``) and propagate all of their probes through one batch of the
knot engine. A block holds as many trials as make about ``BLOCK_KNOTS``
pieces of path in all (``_block_trials``), so a one-unit net's trials run as
one block; the block size does not change any result.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import ArchitectureDescriptor
from .core import (MERGE_TOL, Affine, GroupSort, Maxout, NetworkSpec, Pointwise,
                   ScalarCPWL, ValidationError, abs_unit, leaky_relu_unit,
                   relu_unit, row_norms)
# count_knots is not called here; it stays importable as stochastic.count_knots,
# which bench/spans.py wraps.
from .paths import (PolygonalPath, count_knots,  # noqa: F401
                    segment_image_lengths, segment_knot_counts)
from .switching import LAYER_OF_RAW, _KINDS, unit_tables

SAMPLED_FAMILIES = ("relu", "leaky", "abs", "deepspline", "maxout", "groupsort")
LEAKY_SLOPE = 0.1
# Pieces that the probes of one Monte Carlo block may be cut into, 1 + sum
# (kappa - 1) a trial (``_block_trials``); it bounds the engine's arrays.
BLOCK_KNOTS = 2048


@dataclass(frozen=True)
class InitSpec:
    """Parameter distribution for random networks.

    ``weight_dist``: "normal", "uniform", or "orthogonal" (Haar orthogonal
    rows/columns, used for exact norm-preservation experiments).
    ``fan_in_mode``: None keeps ``sigma_w`` as-is; "2/fan-in" replaces the
    per-layer weight std with sqrt(2 / fan_in).
    """

    weight_dist: str = "normal"
    sigma_w: float = 1.0
    bias_dist: str = "normal"
    sigma_b: float = 1.0
    fan_in_mode: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        if self.weight_dist not in ("normal", "uniform", "orthogonal"):
            raise ValidationError(f"unsupported weight distribution {self.weight_dist!r}")
        if self.bias_dist not in ("normal", "uniform"):
            raise ValidationError(f"unsupported bias distribution {self.bias_dist!r}")
        if self.fan_in_mode not in (None, "2/fan-in"):
            raise ValidationError(f"unsupported fan-in mode {self.fan_in_mode!r}")
        if not (self.sigma_w > 0 and self.sigma_b > 0):
            raise ValidationError("sigma_w and sigma_b must be positive")
        _seed_words(self.seed)  # rejects a negative seed

    @property
    def sup_bias_density(self) -> float:
        """sup_t of the bias density: 1/(sigma_b*sqrt(2*pi)) for normal,
        1/(2*sqrt(3)*sigma_b) for uniform."""
        if self.bias_dist == "normal":
            return 1.0 / (self.sigma_b * math.sqrt(2.0 * math.pi))
        return 1.0 / (2.0 * math.sqrt(3.0) * self.sigma_b)

    def sigma_w_for(self, fan_in: int) -> float:
        if self.fan_in_mode == "2/fan-in":
            return math.sqrt(2.0 / fan_in)
        return self.sigma_w


@dataclass(frozen=True)
class McEstimate:
    mean: float
    se: float
    trials: int
    values: tuple
    bound: Optional[float] = None

    @classmethod
    def from_values(cls, values: Sequence[float], bound: Optional[float] = None
                    ) -> "McEstimate":
        v = np.asarray(values, dtype=float)
        if len(v) < 2:
            raise ValidationError("an estimate needs at least 2 trials")
        return cls(float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v))),
                   len(v), tuple(v.tolist()), bound)

    @property
    def three_se(self) -> float:
        return 3.0 * self.se


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------
# numpy's SeedSequence (entropy mixing and generate_state, numpy/random/
# bit_generator.pyx) on uint32 arrays with one row per stream, so that the
# keys of many streams come out of one pass of array operations.

_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# Spawn-key tags of a trial's probe stream and expansion-sample stream.
_PROBE, _EXPANSION = 1 << 20, 1 << 21


def _seed_words(seed: int) -> list:
    """The entropy words SeedSequence makes of an int: its 32-bit limbs,
    least significant first ([0] for 0)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """(n + 1, 1) uint32: the multipliers that n hashmix steps go through."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    c = np.array(out, np.uint32)[:, None]
    c.setflags(write=False)
    return c


def _hashmix(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """hashmix of v (rows broadcast against c) as the len(c) - 1 steps that
    go through the multipliers c."""
    v = (v ^ c[:-1]) * c[1:]
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> np.uint32(16))


def _generate_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """(n, n_words) uint32: SeedSequence.generate_state(n_words) of each row of
    an (n, m) uint32 entropy array, rows of one length m > the pool size.
    numpy mixes one pool word at a time; the steps that read the same word
    go together here, each with its own multiplier."""
    e = entropy.T
    c = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * len(e))
    pool = _hashmix(e[:_POOL_SIZE], c[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], c[k:k + len(dst) + 1]))
        k += len(dst)
    for word in e[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, c[k:k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    c = _hash_consts(_INIT_B, _MULT_B, n_words)
    return _hashmix(pool[np.arange(n_words) % _POOL_SIZE], c).T


def _spawn_states(seed: np.ndarray, spawn: np.ndarray, n_words: int) -> np.ndarray:
    """(n, n_words) uint32: SeedSequence(seed_i, spawn_key=spawn_i)
    .generate_state(n_words) for each row. ``seed`` is (s,) or (n, s) uint32
    seed words; SeedSequence pads them with zeros to the pool size, so a
    64-bit seed may be written as two words even below 2**32. ``spawn`` is
    (n, k) non-negative ints, k >= 1. An element of 2**32 or more is two
    words, so rows are grouped by the layout of their entropy."""
    spawn = np.asarray(spawn, dtype=np.uint64)
    n, k = spawn.shape
    seed = np.asarray(seed, dtype=np.uint32)
    pad = np.zeros(max(_POOL_SIZE - seed.shape[-1], 0), np.uint32)
    seed = np.hstack([np.broadcast_to(seed, (n, seed.shape[-1])),
                      np.broadcast_to(pad, (n, len(pad)))])
    lo = (spawn & np.uint64(_MASK32)).astype(np.uint32)
    hi = (spawn >> np.uint64(32)).astype(np.uint32)
    layout = (hi != 0) @ (1 << np.arange(k))  # bit j: element j has two words
    out = np.empty((n, n_words), np.uint32)
    for code in np.flatnonzero(np.bincount(layout)).tolist():
        rows = np.flatnonzero(layout == code)
        cols = [seed[rows]]
        for j in range(k):
            cols += [lo[rows, j:j + 1]] + ([hi[rows, j:j + 1]] if code >> j & 1 else [])
        out[rows] = _generate_state(np.hstack(cols), n_words)
    return out


def _spawn_keys(seed: np.ndarray, spawn: np.ndarray) -> np.ndarray:
    """(n, 2) uint64: the Philox key of each row's SeedSequence (see
    ``_spawn_states``), which is its generate_state(2, np.uint64)."""
    return _spawn_states(seed, spawn, 4).astype("<u4").view("<u8").astype(np.uint64)


def _rekeyer():
    """``at(key)``: one Generator whose Philox is reset to the start of the
    stream with that key, as a new Generator(Philox(SeedSequence)) starts."""
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    zero = np.zeros(4, np.uint64)

    def at(key: np.ndarray) -> np.random.Generator:
        bitgen.state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
                        "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return rng

    return at


def _trial_keys(seed: int, trials: int, n_layers: int, tag: Optional[int]):
    """The keys of every stream trials 0..trials-1 of ``seed`` use, derived
    together: (trials, n_layers, 2) layer keys (seed_t; l) of the trial seeds
    seed_t = (seed; t), and the (trials, 2) keys of (seed; t, tag), or None
    without a tag."""
    words = _seed_words(seed)
    t = np.arange(trials, dtype=np.uint64)[:, None]
    seed_t = _spawn_states(words, t, 2)  # the two words of each 64-bit trial seed
    layer = np.tile(np.arange(n_layers, dtype=np.uint64), trials)[:, None]
    layer_keys = _spawn_keys(np.repeat(seed_t, n_layers, axis=0), layer)
    tagged = None if tag is None else _spawn_keys(words, np.hstack([t, np.full_like(t, tag)]))
    return layer_keys.reshape(trials, n_layers, 2), tagged


def _from_raw(raw: np.ndarray, dist: str, sigma: float, shape: tuple) -> np.ndarray:
    """(n, *shape) draws of ``dist`` with standard deviation ``sigma`` from
    n rows of raw draws: standard normals, or uniforms on [0, 1) as
    ``Generator.uniform`` makes its draws; or Haar orthogonal (rows, cols)
    matrices cut from (m, m) ones, m * m standard normals each."""
    if dist == "orthogonal":
        m = math.isqrt(raw.shape[1])
        q, r = np.linalg.qr(raw.reshape(-1, m, m))
        return (q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None])[:, :shape[0], :shape[1]]
    r = math.sqrt(3.0) * sigma
    return (sigma * raw if dist == "normal" else -r + 2.0 * r * raw).reshape(-1, *shape)


@functools.cache
def _fixed_unit(family: str) -> tuple:
    """The unit of a fixed-unit family, and its ``unit_tables`` as the one
    read-only row, (1, 1, m) and (1, 1, m + 1, 2), that every unit shares."""
    unit = {"relu": relu_unit, "abs": abs_unit,
            "leaky": lambda: leaky_relu_unit(LEAKY_SLOPE)}[family]()
    shared = tuple(a[None] for a in unit_tables((unit,), len(unit.breakpoints)))
    for a in shared:
        a.setflags(write=False)
    return unit, shared


def _spline_units(rng: np.random.Generator, kaps: tuple, sigma_b: float) -> tuple:
    """A spline layer's units drawn one by one, laid out as ``_spline_layer``
    reads them but with a unit's breakpoints drawn again until, sorted, they
    are more than 1e-9 apart: the redraw of a net that ``_spline_layer``
    flags."""
    units = []
    for kap in kaps:
        if kap <= 1:
            units.append(ScalarCPWL((), (1.0,), 0.0))
            continue
        bps = np.sort(sigma_b * rng.standard_normal(kap - 1))
        while np.any(np.diff(bps) <= 1e-9):
            bps = np.sort(sigma_b * rng.standard_normal(kap - 1))
        slopes = rng.standard_normal(kap)
        units.append(ScalarCPWL(tuple(bps.tolist()), tuple(slopes.tolist()),
                                float(rng.standard_normal())))
    return tuple(units)


def _spread(x: np.ndarray) -> np.ndarray:
    """max(1, |x_i|, |x_i+1|) over the last axis: the scale of ``MERGE_TOL``."""
    return np.maximum(1.0, np.maximum(np.abs(x[..., :-1]), np.abs(x[..., 1:])))


def _spline_layer(z: np.ndarray, kaps: tuple, sigma_b: float):
    """n draws of a spline layer from their standard normals z (n, total),
    per unit of kap > 1 pieces kap - 1 for its breakpoints, kap for its slopes
    and one for its first value, all at once as ``ScalarCPWL`` and
    ``unit_tables`` make them: the
    ``unit_tables`` (n, units, m) and (n, units, m + 1, 2), m = max(kaps) - 1,
    and (n,) whether each draw stands: not where ``_spline_units`` would draw
    a breakpoint again (sorted breakpoints within 1e-9), nor where
    ``ScalarCPWL`` would refuse a unit (non-finite) or merge its pieces
    (adjacent slopes or breakpoints within ``MERGE_TOL``). A unit of one
    piece is the identity."""
    n, w, m = len(z), len(kaps), max(max(kaps), 1) - 1
    bps, lines = np.full((n, w, m), np.inf), np.zeros((n, w, m + 1, 2))
    lines[:, :, 0, 0], ok = 1.0, np.ones(n, dtype=bool)
    ends = np.cumsum([2 * k if k > 1 else 0 for k in kaps])
    for g in sorted({k for k in kaps if k > 1}):
        units = [k for k, kap in enumerate(kaps) if kap == g]
        zg = z[:, (ends[units] - 2 * g)[:, None] + np.arange(2 * g)]
        b, s, a = np.sort(sigma_b * zg[..., :g - 1], axis=2), zg[..., g - 1:-1], zg[..., -1]
        gap = np.diff(b)
        ok &= (np.isfinite(b).all(axis=2)
               & (gap > np.maximum(1e-9, MERGE_TOL * _spread(b))).all(axis=2)
               & (np.abs(np.diff(s)) > MERGE_TOL * _spread(s)).all(axis=2)).all(axis=1)
        # The values at the breakpoints, chained from the first; piece i is
        # the line through the value at breakpoint max(i - 1, 0).
        vals = np.cumsum(np.concatenate([a[..., None], s[..., 1:-1] * gap], axis=2), axis=2)
        j = np.maximum(np.arange(g) - 1, 0)
        bps[:, units, :g - 1] = b
        lines[:, units, :g] = np.stack([s, vals[..., j] - s * b[..., j]], axis=3)
    return bps, lines, ok


def _draw_block(arch: ArchitectureDescriptor, init: InitSpec, keys: np.ndarray, at,
                units: Optional[list] = None) -> list:
    """The nets drawn with layer keys ``keys`` (n, layers, 2) as the stacked
    layers of the block (``switching``): layer l of net t draws its weights,
    biases (one call per run of like draws) and spline normals from the
    stream ``at(keys[t, l])`` into row t of preallocated arrays, of which
    each layer is made for all n nets at once; a fixed-unit pointwise layer
    is one shared table row. A net that ``_spline_layer`` flags is drawn
    again, unit by unit (``_spline_units``), into its own rows. Given the
    list ``units``, every net is drawn unit by unit, and each pointwise
    layer's units are appended to it."""
    fam, dims, n, sink = arch.family, arch.dims, len(keys), [] if units is None else units
    if fam not in SAMPLED_FAMILIES:
        raise ValidationError(f"unsupported family {fam!r}")
    wn, bn, spline = init.weight_dist != "uniform", init.bias_dist == "normal", fam == "deepspline"
    draws, tables = [], {}  # per layer: rows, weight draws, raw draws, runs, spline normals
    for l, kaps in enumerate(arch.kappas):
        rows, cols = dims[l + 1] * (max(kaps) if fam == "maxout" else 1), dims[l]
        nw = max(rows, cols) ** 2 if init.weight_dist == "orthogonal" else rows * cols
        runs = [(0, nw + rows, wn)] if wn == bn else [(0, nw, wn), (nw, nw + rows, bn)]
        ns = 2 * sum(k for k in kaps if k > 1) if spline else 0
        draws.append((rows, nw, np.empty((n, nw + rows)), runs, np.empty((n, ns))))
        if spline and units is not None:  # tables to draw unit by unit into
            m = max(max(kaps), 1) - 1
            tables[l] = np.empty((n, rows, m)), np.empty((n, rows, m + 1, 2))

    def draw(t, by_units):
        for l, (rows, nw, raw, runs, z) in enumerate(draws):
            rng = at(keys[t, l])
            for lo, hi, normal in runs:
                (rng.standard_normal if normal else rng.random)(out=raw[t, lo:hi])
            if spline and not by_units:
                rng.standard_normal(out=z[t])
            elif spline:
                drawn = _spline_units(rng, arch.kappas[l], init.sigma_b)
                tables[l][0][t], tables[l][1][t] = unit_tables(drawn, tables[l][0].shape[2])
                sink.append(drawn)

    for t in range(n):
        draw(t, units is not None)
    ok = np.ones(n, dtype=bool)
    for l, (*_, z) in enumerate(draws if spline and units is None else ()):
        *tables[l], stands = _spline_layer(z, arch.kappas[l], init.sigma_b)
        ok &= stands
    for t in np.flatnonzero(~ok).tolist():
        draw(t, True)
    layers = []
    for l, ((rows, nw, raw, *_), kaps) in enumerate(zip(draws, arch.kappas)):
        A = _from_raw(raw[:, :nw], init.weight_dist, init.sigma_w_for(dims[l]), (rows, dims[l]))
        b = _from_raw(raw[:, nw:], init.bias_dist, init.sigma_b, (rows,))
        if fam == "maxout":
            layers.append(_KINDS[Maxout](A.reshape(n, dims[l + 1], -1, dims[l]),
                                          b.reshape(n, dims[l + 1], -1)))
            continue
        layers.append(_KINDS[Affine](A, b))
        if fam == "groupsort":  # groups of kaps[0]; the readout stays affine
            if l < len(dims) - 2 and rows % kaps[0] == 0:
                layers.append(_KINDS[GroupSort](kaps[0]))
        elif spline:
            layers.append(_KINDS[Pointwise](*tables[l]))
        else:
            unit, shared = _fixed_unit(fam)
            layers.append(_KINDS[Pointwise](*shared))
            sink.append((unit,) * rows)
    return layers


def sampled_architecture(family: str, d: int, width: Optional[int] = None, depth: int = 1, *,
                         kappa: Optional[int] = None, rank: Optional[int] = None,
                         group_size: int = 2) -> ArchitectureDescriptor:
    """The descriptor of the nets ``sample_network`` draws for ``family``:
    ``depth`` activation layers of ``width`` units (default 1) on ``d``
    inputs, units of 2 regions, or ``kappa`` (deepspline), ``rank`` (maxout)
    or ``group_size`` (groupsort). The sampler keeps a groupsort net's
    readout affine, so it adds one layer, and its width defaults to d."""
    if family not in SAMPLED_FAMILIES:
        raise ValidationError(f"unknown family {family!r}; choose from {', '.join(SAMPLED_FAMILIES)}")
    per_unit = {"deepspline": kappa, "maxout": rank, "groupsort": group_size}.get(family, 2)
    if per_unit is None:
        raise ValidationError(f"family {family!r} needs {'kappa' if family == 'deepspline' else 'rank'}")
    if depth < 1:
        raise ValidationError("depth must be at least 1")
    if family == "groupsort":
        width, depth = d if width is None else width, depth + 1
    dims = (d,) + (1 if width is None else width,) * depth
    return ArchitectureDescriptor(dims, tuple((per_unit,) * w for w in dims[1:]), family=family)


def sample_network(arch: ArchitectureDescriptor, init: InitSpec,
                   seed: Optional[int] = None) -> NetworkSpec:
    """Random network for the descriptor's family, whose ``kappas`` are the
    only source of per-unit counts; deterministic given seed.

    relu/leaky/abs: every non-input width (including a scalar output) gets an
    affine layer followed by its activation. deepspline: unit i of layer l
    has ``kappas[l][i]`` pieces (random breakpoints and slopes; one piece is
    the identity). maxout: layer l has rank ``max(kappas[l])``. groupsort:
    affine + groupsort blocks of groups of ``kappas[l][0]`` on divisible
    widths; the readout stays affine. It is the Monte Carlo block draw of
    one trial, unit by unit (``_spline_units``).
    """
    seed = init.seed if seed is None else seed
    keys = _spawn_keys(_seed_words(seed), np.arange(len(arch.dims) - 1)[:, None])
    units: list = []
    block = _draw_block(arch, init, keys[None], _rekeyer(), units)
    return NetworkSpec(arch.dims[0], tuple(
        Pointwise(units.pop(0)) if layer.kind is Pointwise else LAYER_OF_RAW[layer.kind](
            *(p[0] if isinstance(p, np.ndarray) else p for p in layer.params)) for layer in block))


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------

def unit_density_bound(family: str, init: InitSpec, *, rank: int = 2,
                       d: int = 1, group_size: int = 2) -> float:
    """Expected knot density of a single random component along any straight
    line, per unit arc length.

    relu (also leaky/abs, which switch at the same crossings):
    sigma_w/(pi*sigma_b) under normal weights, sqrt(E[w^2])*sup rho_b
    otherwise. maxout rank K: sqrt(2)*C(K,2)*[same factor]. groupsort on d
    inputs with groups of g: (sqrt(2)/2)*d*(g-1)*[same factor].
    """
    if family in ("relu", "leaky", "abs"):
        base = 1.0
    elif family == "maxout":
        base = math.sqrt(2.0) * (rank * (rank - 1) // 2)
    elif family == "groupsort":
        base = (math.sqrt(2.0) / 2.0) * d * (group_size - 1)
    else:
        raise ValidationError(f"no density bound for family {family!r}")
    if init.weight_dist == "normal":
        return base * init.sigma_w / (math.pi * init.sigma_b)
    if init.weight_dist == "uniform":
        return base * init.sigma_w * init.sup_bias_density
    raise ValidationError(f"no density bound for weights {init.weight_dist!r}")


@dataclass(frozen=True)
class CompositionalBound:
    series_form: float  # lambda0 * W * sum_{l<L} D0^l
    linear_form: float  # max(D0, 1) * lambda0 * W * L


def compositional_density_bound(lambda0: float, d0: float, width: int,
                                depth: int) -> CompositionalBound:
    """Depth-compositional density bounds from per-component density lambda0
    and directional-expansion factor D0."""
    if lambda0 < 0 or d0 < 0:
        raise ValidationError("lambda0 and D0 must be nonnegative")
    if d0 == 1.0:
        geo = lambda0 * width * depth
    else:
        geo = lambda0 * width * (1.0 - d0 ** depth) / (1.0 - d0)
    return CompositionalBound(geo, max(d0, 1.0) * lambda0 * width * depth)


def relu_crossing_density_oracle(sigma_w: float, sigma_b: float,
                                 length: float) -> float:
    """Independent check of the single-ReLU-unit expected knot density along a
    centered segment of the given length: integrate the crossing probability
    P(|b| <= (L/2)|<w,u>|) over the law of |<w,u>| ~ |N(0, sigma_w^2)| and
    divide by the length. Dimension-free because <w,u> is 1D Gaussian."""
    from scipy import integrate, stats

    half = length / 2.0

    def f(s):
        return (2.0 * stats.norm.pdf(s, scale=sigma_w)
                * (2.0 * stats.norm.cdf(half * s / sigma_b) - 1.0))

    val, _ = integrate.quad(f, 0.0, np.inf)
    return val / length


# ---------------------------------------------------------------------------
# Monte Carlo drivers
# ---------------------------------------------------------------------------

def _probe_ends(init: InitSpec, u: np.ndarray):
    """Ends of the probes along the (n, d) standard-normal draws ``u``."""
    length = 10.0 * init.sigma_b / init.sigma_w_for(u.shape[1])
    u = u / row_norms(u)[:, None]
    return -(length / 2.0) * u, (length / 2.0) * u


def default_probe(init: InitSpec, d: int, rng: np.random.Generator) -> PolygonalPath:
    """Straight segment of length 10*sigma_b/sigma_w centered at the origin in
    a uniformly random direction — long enough to cross many expected knots
    while staying where the bias density has its mass."""
    p0, p1 = _probe_ends(init, rng.standard_normal((1, d)))
    return PolygonalPath.segment(p0[0], p1[0])


def _block_trials(arch) -> int:
    """Trials in a block of ``arch``'s nets, by a count of their knots that
    is linear in depth x width x pieces, as the expected count is."""
    return max(1, BLOCK_KNOTS // (1 + sum(k - 1 for row in arch.kappas for k in row)))


def _trial_blocks(arch, init, trials, tag=None, shape=()):
    """Each block of trials: their networks as stacked layers, and one array
    of each trial's standard normals of ``shape`` from its stream (seed; t, tag)."""
    keys, tagged = _trial_keys(init.seed, trials, len(arch.dims) - 1, tag)
    at, step = _rekeyer(), _block_trials(arch)
    for first in range(0, trials, step):
        block = range(first, min(first + step, trials))
        normals = None if tag is None else np.empty((len(block), *shape))
        for t, row in zip(block, () if tag is None else normals):
            at(tagged[t]).standard_normal(out=row)
        yield _draw_block(arch, init, keys[block], at), normals


def _probe_densities(arch, init, trials, after) -> np.ndarray:
    """(trials, k) knot densities along each trial's default probe of its
    network truncated after the layers ``after(layers)`` picks from the
    stacked layers of a block."""
    d = arch.dims[0]
    out = []
    for layers, u in _trial_blocks(arch, init, trials, _PROBE, (d,)):
        p0, p1 = _probe_ends(init, u)
        counts = segment_knot_counts(layers, p0, p1, after(layers))
        # The length as PolygonalPath.length computes it.
        out.append((counts / np.linalg.norm(p1 - p0, axis=1)).T)
    return np.concatenate(out)


def mc_knot_density(arch: ArchitectureDescriptor, init: InitSpec, trials: int = 1000,
                    bound: Optional[float] = None) -> McEstimate:
    """Mean exact knot density of random networks, drawn by
    ``sample_network`` from ``arch`` alone, along ``default_probe`` paths.
    ``bound`` defaults to the per-unit closed form times the layer width for
    single-activation-layer networks (for groupsort, the bound of its one
    sorting layer), and must be supplied for deep ones.
    """
    if trials < 100:
        raise ValidationError("density estimation needs at least 100 trials")
    vals = _probe_densities(arch, init, trials, lambda layers: [len(layers) - 1])
    if bound is None:
        bound = _auto_bound(arch, init)
    return McEstimate.from_values(vals[:, 0], bound)


def _auto_bound(arch, init) -> Optional[float]:
    """The closed-form bound of a net with one activation layer, else None,
    of the rank or group size in ``arch``. A sampled groupsort net keeps its
    readout affine, so its one sorting layer needs dims (d, w, w), and the
    sampler adds it only where the group size divides w."""
    fam, dims, g = arch.family, arch.dims, arch.kappas[0][0]
    if fam == "groupsort":
        return (unit_density_bound(fam, init, d=dims[0], group_size=g)
                if len(dims) == 3 and dims[1] % g == 0 else None)
    if fam not in ("relu", "leaky", "abs", "maxout") or len(dims) != 2:
        return None
    return dims[1] * unit_density_bound(fam, init, rank=max(arch.kappas[0]))


def mc_knot_density_by_depth(arch: ArchitectureDescriptor, init: InitSpec,
                             trials: int = 2000) -> list[McEstimate]:
    """Knot densities of every depth prefix of the networks sampled from
    ``arch``, one propagation per trial (prefix l reuses the work of prefix
    l+1). Returns one estimate per activation layer depth 1..L, with
    per-trial values aligned across depths so paired comparisons are valid."""
    if trials < 100:
        raise ValidationError("density estimation needs at least 100 trials")
    cols = _probe_densities(arch, init, trials,
                            lambda layers: [i for i, layer in enumerate(layers)
                                            if layer.kind is not Affine])
    return [McEstimate.from_values(cols[:, j]) for j in range(cols.shape[1])]


def estimate_directional_expansion(arch: ArchitectureDescriptor, init: InitSpec,
                                   trials: int = 1000) -> McEstimate:
    """D0-hat: mean directional-derivative norm ||D_u F_l(x)|| over networks
    sampled from ``arch``, standard-normal inputs x, uniform directions u,
    and all depth prefixes l (each trial contributes its average over
    prefixes)."""
    if trials < 100:
        raise ValidationError("expansion estimation needs at least 100 trials")
    vals = []
    for layers, xu in _trial_blocks(arch, init, trials, _EXPANSION, (2, arch.dims[0])):
        Z, dZ = xu.transpose(1, 0, 2).copy()  # each trial's x, then its u
        dZ /= row_norms(dZ)[:, None]
        norms = []
        for layer in layers:
            A, Z = layer.compose(dZ[..., None], Z, Z, dZ)
            dZ = A[..., 0]
            norms.append(row_norms(dZ))
        vals += np.stack(norms, axis=1).mean(axis=1).tolist()
    return McEstimate.from_values(vals)


def estimate_unit_density(fan_in: int, init: InitSpec, trials: int = 1000,
                          family: str = "relu", *, rank: int = 2,
                          group_size: int = 2) -> McEstimate:
    """lambda0-hat: mean exact knot density of a single random component
    (one unit on ``fan_in`` inputs) along the default probe, with the
    bound of ``mc_knot_density``."""
    arch = sampled_architecture(family, fan_in, rank=rank, group_size=group_size)
    return mc_knot_density(arch, init, trials=trials)


def mc_image_length(arch: ArchitectureDescriptor, init: InitSpec,
                    path: PolygonalPath, trials: int = 1000,
                    bound: Optional[float] = None) -> McEstimate:
    """Mean arc length of the image of ``path`` under networks sampled from
    ``arch``."""
    if trials < 2:
        raise ValidationError("an estimate needs at least 2 trials")
    p0, p1, n = path.vertices[:-1], path.vertices[1:], len(path.vertices) - 1
    vals = []
    for layers, _ in _trial_blocks(arch, init, trials):
        owner = np.repeat(np.arange(len(layers[0].params[0])), n)  # segment t * n + j: net t
        j = np.arange(len(owner)) % n
        lengths = segment_image_lengths([layer.per(owner) for layer in layers], p0[j], p1[j])
        vals += [functools.reduce(operator.add, lengths[t:t + n], 0.0)  # in order, as image_length
                 for t in range(0, len(owner), n)]
    return McEstimate.from_values(vals, bound)


# ---------------------------------------------------------------------------
# Experiment tables
# ---------------------------------------------------------------------------

MC_CSV_COLUMNS = ("family", "W", "L", "kappa", "sigma_w", "sigma_b", "trials",
                  "mean", "SE", "bound", "pass")


def mc_table_row(family: str, width: int, depth: int, kappa, init: InitSpec,
                 est: McEstimate) -> dict:
    ok = est.bound is None or est.mean <= est.bound + est.three_se
    return {"family": family, "W": width, "L": depth, "kappa": kappa,
            "sigma_w": init.sigma_w, "sigma_b": init.sigma_b,
            "trials": est.trials, "mean": est.mean, "SE": est.se,
            "bound": est.bound, "pass": ok}


def mc_table_csv(rows: Sequence[dict]) -> str:
    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        if v is None:
            return ""
        return str(v)

    lines = [",".join(MC_CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(fmt(r[c]) for c in MC_CSV_COLUMNS))
    return "\n".join(lines) + "\n"
