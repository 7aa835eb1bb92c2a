"""Random network sampling and Monte Carlo estimation of knot density,
directional expansion, and image length, against the closed-form bounds.

Determinism: every random object derives from a counter-based splitter
(SeedSequence -> Philox). Trial t of an estimate draws its network from the
trial seed (seed; t), layer l from the child sequence (seed_t; l), and its
probe from (seed; t, 1 << 20): one generator per (seed, trial, layer) and one
per probe, so every value depends only on the seed and its trial. The Monte
Carlo drivers draw the trials of a block as raw arrays and propagate all of
their probes through one batch of the knot engine; the block size does not
change any result.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import integrate, stats

from .bounds import ArchitectureDescriptor
from .core import (Affine, GroupSort, Maxout, NetworkSpec, Pointwise,
                   ScalarCPWL, ValidationError, abs_unit, leaky_relu_unit,
                   relu_unit)
# count_knots is not called here; it stays importable as stochastic.count_knots,
# which bench/spans.py wraps.
from .paths import (PolygonalPath, count_knots, row_norms,  # noqa: F401
                    segment_image_lengths, segment_knot_counts)
from .switching import LAYER_OF_RAW, stack

SAMPLED_FAMILIES = ("relu", "leaky", "abs", "deepspline", "maxout", "groupsort")
LEAKY_SLOPE = 0.1
# Trials drawn and propagated together by the Monte Carlo drivers; it bounds
# the engine's arrays for any trial count.
TRIAL_BLOCK = 32


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


def _trial_rng(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def _draw_weights(rng: np.random.Generator, shape: tuple, dist: str,
                  sigma: float) -> np.ndarray:
    if dist == "normal":
        return sigma * rng.standard_normal(shape)
    if dist == "uniform":
        r = math.sqrt(3.0) * sigma
        return rng.uniform(-r, r, size=shape)
    # Haar orthogonal (rows orthonormal if out <= in, columns if out >= in).
    rows, cols = shape[-2], shape[-1]
    n = max(rows, cols)
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return q[:rows, :cols].copy()


def _draw_bias(rng: np.random.Generator, n: int, dist: str, sigma: float) -> np.ndarray:
    if dist == "normal":
        return sigma * rng.standard_normal(n)
    r = math.sqrt(3.0) * sigma
    return rng.uniform(-r, r, size=n)


@functools.cache
def _fixed_unit(family: str) -> ScalarCPWL:
    return {"relu": relu_unit, "abs": abs_unit,
            "leaky": lambda: leaky_relu_unit(LEAKY_SLOPE)}[family]()


def _draw_layers(arch: ArchitectureDescriptor, init: InitSpec, seed: int,
                 kappa: Optional[int], rank: Optional[int], group_size: int) -> list:
    """The random layers of ``sample_network`` as raw layers (see
    ``switching``), drawn in order from one generator per layer."""
    fam = arch.family
    if fam not in SAMPLED_FAMILIES:
        raise ValidationError(f"unsupported family {fam!r}")
    dims = arch.dims
    layers: list = []
    for l in range(len(dims) - 1):
        rng = _trial_rng(seed, l)
        fan_in, width = dims[l], dims[l + 1]
        sw = init.sigma_w_for(fan_in)
        if fam == "maxout":
            K = rank if rank is not None else max(arch.kappas[l])
            W = _draw_weights(rng, (width * K, fan_in), init.weight_dist, sw
                              ).reshape(width, K, fan_in)
            o = _draw_bias(rng, width * K, init.bias_dist, init.sigma_b
                           ).reshape(width, K)
            layers.append((Maxout, W, o))
            continue
        M = _draw_weights(rng, (width, fan_in), init.weight_dist, sw)
        b = _draw_bias(rng, width, init.bias_dist, init.sigma_b)
        layers.append((Affine, M, b))
        last = l == len(dims) - 2
        if fam == "groupsort":
            if not last and width % group_size == 0:
                layers.append((GroupSort, group_size))
            continue
        if fam != "deepspline":
            layers.append((Pointwise, (_fixed_unit(fam),) * width))
            continue
        units = []
        for k in range(width):
            kap = kappa if kappa is not None else arch.kappas[l][k]
            if kap <= 1:
                units.append(ScalarCPWL((), (1.0,), 0.0))
                continue
            bps = np.sort(init.sigma_b * rng.standard_normal(kap - 1))
            while np.any(np.diff(bps) <= 1e-9):
                bps = np.sort(init.sigma_b * rng.standard_normal(kap - 1))
            slopes = rng.standard_normal(kap)
            units.append(ScalarCPWL(tuple(bps.tolist()), tuple(slopes.tolist()),
                                    float(rng.standard_normal())))
        layers.append((Pointwise, tuple(units)))
    return layers


def sample_network(arch: ArchitectureDescriptor, init: InitSpec,
                   seed: Optional[int] = None, *, kappa: Optional[int] = None,
                   rank: Optional[int] = None, group_size: int = 2) -> NetworkSpec:
    """Random network for the descriptor's family; deterministic given seed.

    relu/leaky/abs: every non-input width (including a scalar output) gets an
    affine layer followed by its activation. deepspline: units with kappa-1
    random breakpoints and random slopes. maxout: rank-``rank`` maxout layers
    (the affine map lives inside the layer). groupsort: affine + groupsort
    blocks on divisible widths; the final readout stays affine-only.
    """
    layers = _draw_layers(arch, init, init.seed if seed is None else seed,
                          kappa, rank, group_size)
    return NetworkSpec(arch.dims[0], tuple(LAYER_OF_RAW[kind](*args) for kind, *args in layers))


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
    half = length / 2.0

    def f(s):
        return (2.0 * stats.norm.pdf(s, scale=sigma_w)
                * (2.0 * stats.norm.cdf(half * s / sigma_b) - 1.0))

    val, _ = integrate.quad(f, 0.0, np.inf)
    return val / length


# ---------------------------------------------------------------------------
# Monte Carlo drivers
# ---------------------------------------------------------------------------

def _probe_ends(init: InitSpec, d: int, rng: np.random.Generator):
    sw = init.sigma_w_for(d)
    length = 10.0 * init.sigma_b / sw
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    return -(length / 2.0) * u, (length / 2.0) * u


def default_probe(init: InitSpec, d: int, rng: np.random.Generator) -> PolygonalPath:
    """Straight segment of length 10*sigma_b/sigma_w centered at the origin in
    a uniformly random direction — long enough to cross many expected knots
    while staying where the bias density has its mass."""
    return PolygonalPath.segment(*_probe_ends(init, d, rng))


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(trial,))
               .generate_state(1, dtype=np.uint64)[0])


def _trial_blocks(arch, init, trials, kappa, rank, group_size):
    """Each block of trials: its trial indices and their networks as raw layers."""
    for first in range(0, trials, TRIAL_BLOCK):
        block = range(first, min(first + TRIAL_BLOCK, trials))
        yield block, [_draw_layers(arch, init, _trial_seed(init.seed, t), kappa, rank, group_size)
                      for t in block]


def _probe_densities(arch, init, trials, kappa, rank, group_size, after) -> np.ndarray:
    """(trials, k) knot densities along each trial's default probe of its
    network truncated after the layers ``after(layers)`` picks from the raw
    layers of the first trial."""
    d = arch.dims[0]
    out = []
    for block, nets in _trial_blocks(arch, init, trials, kappa, rank, group_size):
        ends = np.array([_probe_ends(init, d, _trial_rng(init.seed, t, 1 << 20)) for t in block])
        p0, p1 = ends[:, 0], ends[:, 1]
        counts = segment_knot_counts(nets, p0, p1, after(nets[0]))
        # The length as PolygonalPath.length computes it.
        out.append((counts / np.linalg.norm(p1 - p0, axis=1)).T)
    return np.concatenate(out)


def mc_knot_density(arch: ArchitectureDescriptor, init: InitSpec, trials: int = 1000,
                    bound: Optional[float] = None, *, kappa: Optional[int] = None,
                    rank: Optional[int] = None, group_size: int = 2) -> McEstimate:
    """Mean exact knot density of random networks along ``default_probe``
    paths. ``bound`` defaults to the per-unit closed form times the layer
    width for single-activation-layer networks, and must be supplied for deep
    ones.
    """
    if trials < 100:
        raise ValidationError("density estimation needs at least 100 trials")
    vals = _probe_densities(arch, init, trials, kappa, rank, group_size,
                            lambda layers: [len(layers) - 1])
    if bound is None:
        bound = _auto_bound(arch, init, rank, group_size)
    return McEstimate.from_values(vals[:, 0], bound)


def _auto_bound(arch, init, rank, group_size) -> Optional[float]:
    fam = arch.family
    if fam not in ("relu", "leaky", "abs", "maxout", "groupsort"):
        return None
    if len(arch.dims) != 2:
        return None
    width = arch.dims[1]
    if fam == "maxout":
        K = rank if rank is not None else max(arch.kappas[0])
        return width * unit_density_bound("maxout", init, rank=K)
    if fam == "groupsort":
        return unit_density_bound("groupsort", init, d=arch.dims[0],
                                  group_size=group_size)
    return width * unit_density_bound(fam, init)


def mc_knot_density_by_depth(arch: ArchitectureDescriptor, init: InitSpec,
                             trials: int = 2000, *, kappa: Optional[int] = None
                             ) -> list[McEstimate]:
    """Knot densities of every depth prefix of the sampled networks, one
    propagation per trial (prefix l reuses the work of prefix l+1). Returns
    one estimate per activation layer depth 1..L, with per-trial values
    aligned across depths so paired comparisons are valid."""
    if trials < 100:
        raise ValidationError("density estimation needs at least 100 trials")
    cols = _probe_densities(arch, init, trials, kappa, None, 2,
                            lambda layers: [i for i, (kind, *_) in enumerate(layers)
                                            if kind is not Affine])
    return [McEstimate.from_values(cols[:, j]) for j in range(cols.shape[1])]


def estimate_directional_expansion(arch: ArchitectureDescriptor, init: InitSpec,
                                   trials: int = 1000, *,
                                   kappa: Optional[int] = None,
                                   rank: Optional[int] = None,
                                   group_size: int = 2) -> McEstimate:
    """D0-hat: mean directional-derivative norm ||D_u F_l(x)|| over random
    networks, standard-normal inputs x, uniform directions u, and all depth
    prefixes l (each trial contributes its average over prefixes)."""
    if trials < 100:
        raise ValidationError("expansion estimation needs at least 100 trials")
    d = arch.dims[0]
    vals = []
    for block, nets in _trial_blocks(arch, init, trials, kappa, rank, group_size):
        rngs = [_trial_rng(init.seed, t, 1 << 21) for t in block]
        Z = np.array([rng.standard_normal(d) for rng in rngs])  # each trial's x, then its u
        dZ = np.array([rng.standard_normal(d) for rng in rngs])
        dZ /= row_norms(dZ)[:, None]
        norms = []
        for layer in stack(nets):
            A, Z = layer.compose(dZ[..., None], Z, Z, dZ)
            dZ = A[..., 0]
            norms.append(row_norms(dZ))
        vals += np.stack(norms, axis=1).mean(axis=1).tolist()
    return McEstimate.from_values(vals)


def estimate_unit_density(fan_in: int, init: InitSpec, trials: int = 1000,
                          family: str = "relu", *, rank: int = 2,
                          group_size: int = 2) -> McEstimate:
    """lambda0-hat: mean exact knot density of a single random component
    (one unit on ``fan_in`` inputs) along the default probe."""
    if family in ("relu", "leaky", "abs"):
        arch = ArchitectureDescriptor((fan_in, 1), ((2,),), family=family)
        bound = unit_density_bound(family, init)
    elif family == "maxout":
        arch = ArchitectureDescriptor((fan_in, 1), ((rank,),), family="maxout")
        bound = unit_density_bound("maxout", init, rank=rank)
    elif family == "groupsort":
        # The readout of a sampled groupsort net stays affine, so one sorting
        # layer needs dims (fan_in, fan_in, fan_in).
        arch = ArchitectureDescriptor((fan_in, fan_in, fan_in),
                                      ((2,) * fan_in, (2,) * fan_in),
                                      family="groupsort")
        bound = unit_density_bound("groupsort", init, d=fan_in, group_size=group_size)
    else:
        raise ValidationError(f"no unit density for family {family!r}")
    return mc_knot_density(arch, init, trials=trials, bound=bound, rank=rank,
                           group_size=group_size)


def mc_image_length(arch: ArchitectureDescriptor, init: InitSpec,
                    path: PolygonalPath, trials: int = 1000,
                    bound: Optional[float] = None, *,
                    kappa: Optional[int] = None, rank: Optional[int] = None,
                    group_size: int = 2) -> McEstimate:
    """Mean arc length of the image of ``path`` under random networks."""
    if trials < 2:
        raise ValidationError("an estimate needs at least 2 trials")
    p0, p1 = path.vertices[:-1], path.vertices[1:]
    vals = []
    for _, nets in _trial_blocks(arch, init, trials, kappa, rank, group_size):
        lengths = segment_image_lengths([net for net in nets for _ in p0],
                                        np.tile(p0, (len(nets), 1)), np.tile(p1, (len(nets), 1)))
        for t in range(len(nets)):
            total = 0.0  # summed as image_length sums its segments
            for length in lengths[t * len(p0):(t + 1) * len(p0)]:
                total += length
            vals.append(total)
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
