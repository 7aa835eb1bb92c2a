"""Random-network sampling, density bounds, and Monte Carlo estimators."""
import hashlib
import json
import math

import numpy as np
import pytest

from cpwl import stochastic
from cpwl.bounds import ArchitectureDescriptor
from cpwl.cli import main
from cpwl.core import (Affine, GroupSort, Maxout, Pointwise, ScalarCPWL,
                       ValidationError)
from cpwl.paths import (PolygonalPath, count_knots, image_length,
                        segment_knot_counts)
from cpwl.serial import network_to_json
from cpwl.stochastic import (MC_CSV_COLUMNS, CompositionalBound, InitSpec,
                             McEstimate, compositional_density_bound,
                             default_probe, estimate_directional_expansion,
                             estimate_unit_density, mc_image_length,
                             mc_knot_density, mc_knot_density_by_depth,
                             mc_table_csv, mc_table_row,
                             relu_crossing_density_oracle, sample_network,
                             sampled_architecture, unit_density_bound)
from cpwl.switching import unit_tables


def relu_arch(d, width):
    return ArchitectureDescriptor((d, width), ((2,) * width,), family="relu")


# ---------------------------------------------------------------------------
# InitSpec
# ---------------------------------------------------------------------------

def test_init_spec_validation():
    with pytest.raises(ValidationError):
        InitSpec(weight_dist="laplace")
    with pytest.raises(ValidationError):
        InitSpec(bias_dist="orthogonal")
    with pytest.raises(ValidationError):
        InitSpec(fan_in_mode="1/fan-in")
    with pytest.raises(ValidationError):
        InitSpec(sigma_w=0.0)


def test_negative_seeds_are_rejected():
    with pytest.raises(ValidationError):
        InitSpec(seed=-1)
    arch = ArchitectureDescriptor((2, 3, 1), ((2,) * 3, (2,)), family="relu")
    with pytest.raises(ValidationError):
        sample_network(arch, InitSpec(), seed=-1)


def test_sup_bias_density():
    assert InitSpec().sup_bias_density == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert InitSpec(bias_dist="uniform").sup_bias_density == pytest.approx(
        1.0 / (2 * math.sqrt(3)))
    assert InitSpec(sigma_b=2.0).sup_bias_density == pytest.approx(
        0.5 / math.sqrt(2 * math.pi))


def test_sigma_w_for_fan_in_scaling():
    assert InitSpec(sigma_w=0.7).sigma_w_for(9) == 0.7
    spec = InitSpec(fan_in_mode="2/fan-in")
    assert spec.sigma_w_for(8) == pytest.approx(0.5)
    assert spec.sigma_w_for(2) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Closed-form unit bounds
# ---------------------------------------------------------------------------

def test_unit_density_bounds_normal_weights():
    init = InitSpec()
    assert unit_density_bound("relu", init) == pytest.approx(1.0 / math.pi)
    assert unit_density_bound("abs", init) == pytest.approx(1.0 / math.pi)
    assert unit_density_bound("leaky", init) == pytest.approx(1.0 / math.pi)
    assert unit_density_bound("maxout", init, rank=3) == pytest.approx(
        3.0 * math.sqrt(2.0) / math.pi)
    assert unit_density_bound("groupsort", init, d=4, group_size=2) == pytest.approx(
        2.0 * math.sqrt(2.0) / math.pi)


def test_unit_density_bound_scales_with_sigmas():
    init = InitSpec(sigma_w=3.0, sigma_b=2.0)
    assert unit_density_bound("relu", init) == pytest.approx(1.5 / math.pi)


def test_unit_density_bound_uniform_weights():
    init = InitSpec(weight_dist="uniform", sigma_w=2.0, bias_dist="uniform")
    assert unit_density_bound("relu", init) == pytest.approx(2.0 / (2 * math.sqrt(3)))


def test_unit_density_bound_unknown_family():
    with pytest.raises(ValidationError):
        unit_density_bound("softmax", InitSpec())


def test_compositional_density_bound_forms():
    cb = compositional_density_bound(0.3, 1.0, 4, 5)
    assert isinstance(cb, CompositionalBound)
    assert cb.series_form == pytest.approx(0.3 * 4 * 5)
    assert cb.linear_form == pytest.approx(0.3 * 4 * 5)
    contracting = compositional_density_bound(0.3, 0.5, 4, 1000)
    assert contracting.series_form < 0.3 * 4 * 2.0001  # geometric series cap
    assert contracting.linear_form == pytest.approx(0.3 * 4 * 1000)
    expanding = compositional_density_bound(0.3, 2.0, 4, 6)
    assert expanding.series_form == pytest.approx(0.3 * 4 * (2 ** 6 - 1))
    assert expanding.linear_form == pytest.approx(2.0 * 0.3 * 4 * 6)
    with pytest.raises(ValidationError):
        compositional_density_bound(-0.1, 1.0, 2, 2)


def test_relu_crossing_oracle_approaches_closed_form():
    # A single unit has one knot, so density per unit length peaks as the
    # probe shrinks, approaching the closed-form rate 1/pi.
    tight = relu_crossing_density_oracle(1.0, 1.0, 0.01)
    assert tight == pytest.approx(1.0 / math.pi, rel=1e-4)
    # Longer probes dilute the single crossing.
    vals = [relu_crossing_density_oracle(1.0, 1.0, L) for L in (0.1, 1.0, 10.0, 100.0)]
    assert vals == sorted(vals, reverse=True)
    assert all(v < 1.0 / math.pi for v in vals)
    # Frozen reference for the default probe length used elsewhere.
    assert relu_crossing_density_oracle(1.0, 1.0, 10.0) == pytest.approx(
        0.0874334, abs=2e-7)


# ---------------------------------------------------------------------------
# Network sampling
# ---------------------------------------------------------------------------

def test_sample_network_deterministic():
    arch = ArchitectureDescriptor((2, 3, 1), ((2,) * 3, (2,)), family="relu")
    a = network_to_json(sample_network(arch, InitSpec(seed=4)))
    b = network_to_json(sample_network(arch, InitSpec(seed=4)))
    c = network_to_json(sample_network(arch, InitSpec(seed=5)))
    assert a == b
    assert a != c


def test_sample_relu_activates_every_layer():
    arch = ArchitectureDescriptor((2, 3, 1), ((2,) * 3, (2,)), family="relu")
    net = sample_network(arch, InitSpec())
    assert [type(l).__name__ for l in net.layers] == [
        "Affine", "Pointwise", "Affine", "Pointwise"]
    assert net.dims == (2, 3, 3, 1, 1)


def test_sample_groupsort_keeps_readout_affine():
    arch = ArchitectureDescriptor((4, 4, 4), ((2,) * 4, (2,) * 4), family="groupsort")
    net = sample_network(arch, InitSpec())
    kinds = [type(l).__name__ for l in net.layers]
    assert kinds == ["Affine", "GroupSort", "Affine"]


def test_sample_groupsort_skips_indivisible_widths():
    arch = ArchitectureDescriptor((4, 3, 4), ((2,) * 3, (2,) * 4), family="groupsort")
    net = sample_network(arch, InitSpec(), group_size=2)
    assert not any(isinstance(l, GroupSort) for l in net.layers)


def test_sample_maxout_layers():
    arch = ArchitectureDescriptor((2, 3, 1), ((3,) * 3, (3,)), family="maxout")
    net = sample_network(arch, InitSpec(), rank=3)
    assert all(isinstance(l, Maxout) for l in net.layers)
    assert net.layers[0].rank == 3
    assert net.layers[0].weights.shape == (3, 3, 2)


def test_sample_deepspline_units():
    arch = ArchitectureDescriptor((2, 3, 1), ((4,) * 3, (4,)), family="deepspline")
    net = sample_network(arch, InitSpec(), kappa=4)
    for layer in net.layers:
        if isinstance(layer, Pointwise):
            for u in layer.units:
                assert u.region_count == 4
    ident = sample_network(arch, InitSpec(), kappa=1)
    for layer in ident.layers:
        if isinstance(layer, Pointwise):
            for u in layer.units:
                assert u.breakpoints == ()
                assert u.slopes == (1.0,)


def test_sample_orthogonal_weights_are_orthonormal():
    arch = ArchitectureDescriptor((4, 4, 4), ((2,) * 4, (2,) * 4), family="abs")
    net = sample_network(arch, InitSpec(weight_dist="orthogonal"))
    M = net.layers[0].map.matrix
    assert np.allclose(M @ M.T, np.eye(4), atol=1e-10)


# Recorded with the sampler that built each network directly, before the draw
# moved into raw arrays: per family, a digest of the networks drawn for three
# architectures, three initialisations and three seeds (one a 64-bit trial seed).
PINNED_SAMPLER_STREAMS = {
    "relu": "649e8d84f9bc1fdb",
    "leaky": "11100a839139c9cc",
    "abs": "348ac83c28db62c7",
    "deepspline": "37b9c81c0a58b018",
    "maxout": "cdcc0cb4dbc66c40",
    "groupsort": "a8bee0004ea5f1a6",
}


@pytest.mark.parametrize("family", sorted(PINNED_SAMPLER_STREAMS))
def test_sampler_streams_pinned(family):
    per_unit = {"deepspline": 3, "maxout": 3}.get(family, 2)
    h = hashlib.sha256()
    for dims in ((4, 1), (2, 4, 4, 4), (3, 6, 2)):
        arch = ArchitectureDescriptor(dims, tuple((per_unit,) * w for w in dims[1:]),
                                      family=family)
        for init in (InitSpec(sigma_b=0.5), InitSpec(weight_dist="uniform", bias_dist="uniform"),
                     InitSpec(weight_dist="orthogonal", fan_in_mode="2/fan-in")):
            for seed in (0, 7, 2 ** 63 + 5):
                net = sample_network(arch, init, seed=seed)
                h.update(json.dumps(network_to_json(net), sort_keys=True).encode())
    assert h.hexdigest()[:16] == PINNED_SAMPLER_STREAMS[family]


def test_sample_rejects_unknown_family():
    with pytest.raises(ValidationError):
        sample_network(ArchitectureDescriptor((2, 2), ((2, 2),), family="generic"),
                       InitSpec())


def test_sampled_architecture():
    # depth layers of width units (1 by default); a groupsort net's affine
    # readout adds a layer, of width d by default.
    for family, kw, dims, per_unit in (
            ("relu", {}, (4, 1), 2), ("abs", {"width": 3, "depth": 2}, (4, 3, 3), 2),
            ("maxout", {"rank": 3}, (4, 1), 3), ("deepspline", {"kappa": 5, "depth": 2}, (4, 1, 1), 5),
            ("groupsort", {}, (4, 4, 4), 2), ("groupsort", {"width": 6, "group_size": 3}, (4, 6, 6), 3)):
        arch = sampled_architecture(family, 4, **kw)
        assert (arch.family, arch.dims) == (family, dims)
        assert arch.kappas == tuple((per_unit,) * w for w in dims[1:])
    for family, kw in (("sigmoid", {}), ("deepspline", {}), ("maxout", {}), ("relu", {"depth": 0}),
                       ("relu", {"width": 0}), ("relu", {"d": 0})):
        with pytest.raises(ValidationError):
            sampled_architecture(family, **{"d": 2, **kw})
    with pytest.raises(ValidationError):
        estimate_unit_density(2, InitSpec(), trials=100, family="deepspline")


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

def _numpy_key(seed, spawn_key):
    return np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64)


def test_spawn_keys_match_seed_sequence():
    rng = np.random.default_rng(5)
    seeds = [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64, 2 ** 70, 2 ** 128 + 3,
             2 ** 200 + 9]
    seeds += [int(rng.integers(1, 2 ** 32)) for _ in range(4)]
    seeds += [int(rng.integers(2 ** 32, 2 ** 64, dtype=np.uint64)) for _ in range(4)]
    seeds += [int(rng.integers(1, 2 ** 62)) << int(rng.integers(3, 100)) for _ in range(4)]
    checked = 0
    for seed in seeds:
        t = rng.integers(0, 5000, size=20).astype(np.uint64)[:, None]
        # Spawn keys (t,), (t, 1 << 20) and (t, 1 << 21); the last rows also
        # have elements of two words, so one call mixes entropy layouts.
        wide = np.array([[2 ** 32 + 1, 3], [5, 2 ** 40], [2 ** 33, 2 ** 63]], np.uint64)
        for spawn in (t, np.hstack([t, np.full_like(t, 1 << 20)]),
                      np.vstack([np.hstack([t, np.full_like(t, 1 << 21)]), wide])):
            got = stochastic._spawn_keys(stochastic._seed_words(seed), spawn)
            for row, key in zip(spawn, got):
                assert np.array_equal(key, _numpy_key(seed, tuple(int(v) for v in row))), \
                    (seed, row)
                checked += 1
    assert checked >= 1000


def test_layer_keys_match_seed_sequence():
    # Trial seeds written as two words, also where the high word is 0 (a
    # trial seed below 2**32, which SeedSequence reads as one word).
    rng = np.random.default_rng(6)
    lo = rng.integers(0, 2 ** 32, size=40, dtype=np.uint64)
    hi = np.where(np.arange(40) % 2 == 0, 0, rng.integers(1, 2 ** 32, size=40, dtype=np.uint64))
    words = np.stack([lo, hi], axis=1).astype(np.uint32)
    layer = rng.integers(0, 9, size=40).astype(np.uint64)[:, None]
    got = stochastic._spawn_keys(words, layer)
    for (l, h), (k,), key in zip(words, layer, got):
        assert np.array_equal(key, _numpy_key(int(l) | int(h) << 32, (int(k),)))
    # The keys of one estimate's trials, against one SeedSequence per stream.
    for seed in (0, 3, 2 ** 63 + 5, 2 ** 70):
        keys, tagged = stochastic._trial_keys(seed, 9, 3, 1 << 20)
        for t in range(9):
            seed_t = np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(1, np.uint64)[0]
            for l in range(3):
                assert np.array_equal(keys[t, l], _numpy_key(int(seed_t), (l,)))
            assert np.array_equal(tagged[t], _numpy_key(seed, (t, 1 << 20)))


def test_rekeyed_generator_matches_fresh_generator():
    at = stochastic._rekeyer()
    for seed, spawn_key in ((0, (0,)), (11, (4, 1 << 20)), (2 ** 63 + 5, (2,)),
                            (2 ** 70, (9, 1 << 21))):
        ss = np.random.SeedSequence(seed, spawn_key=spawn_key)
        fresh = np.random.Generator(np.random.Philox(ss))
        at(_numpy_key(seed, spawn_key)).integers(0, 7, size=3, dtype=np.uint32)  # leave a buffer
        rng = at(stochastic._spawn_keys(stochastic._seed_words(seed), [spawn_key])[0])
        for draw in (lambda g: g.integers(0, 2 ** 32, size=3, dtype=np.uint32),
                     lambda g: g.standard_normal((3, 5)), lambda g: g.uniform(-2.0, 2.0, 7),
                     lambda g: stochastic._draw_weights(g, (3, 5), "orthogonal", 1.0)):
            assert draw(rng).tobytes() == draw(fresh).tobytes()


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def test_mc_estimate_from_values():
    est = McEstimate.from_values([1.0, 2.0, 3.0, 4.0], bound=5.0)
    assert est.mean == pytest.approx(2.5)
    assert est.se == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
    assert est.three_se == pytest.approx(3 * est.se)
    assert est.trials == 4
    with pytest.raises(ValidationError):
        McEstimate.from_values([1.0])


def test_mc_knot_density_deterministic_and_bounded():
    est1 = mc_knot_density(relu_arch(3, 2), InitSpec(seed=2), trials=100)
    est2 = mc_knot_density(relu_arch(3, 2), InitSpec(seed=2), trials=100)
    assert est1 == est2
    assert est1.bound == pytest.approx(2.0 / math.pi)
    assert est1.mean <= est1.bound


def test_mc_knot_density_needs_trials():
    with pytest.raises(ValidationError):
        mc_knot_density(relu_arch(2, 2), InitSpec(), trials=50)


def test_single_unit_mean_matches_integral_oracle():
    init = InitSpec(seed=0)
    est = estimate_unit_density(4, init, trials=2000, family="relu")
    oracle = relu_crossing_density_oracle(1.0, 1.0, 10.0)
    assert abs(est.mean - oracle) <= 3 * est.se
    assert est.bound == pytest.approx(1.0 / math.pi)
    assert est.mean <= est.bound


def test_unit_density_estimate_bound_is_the_closed_form():
    # estimate_unit_density takes mc_knot_density's bound: bit for bit the
    # closed form of one unit on 4 inputs.
    for init in (InitSpec(), InitSpec(weight_dist="uniform", sigma_w=0.7, sigma_b=1.3)):
        for family, kw, bound in (
                ("relu", {}, unit_density_bound("relu", init)),
                ("leaky", {}, unit_density_bound("leaky", init)),
                ("maxout", {"rank": 3}, unit_density_bound("maxout", init, rank=3)),
                ("groupsort", {"group_size": 2},
                 unit_density_bound("groupsort", init, d=4, group_size=2))):
            est = estimate_unit_density(4, init, trials=100, family=family, **kw)
            assert est.bound == bound, (family, init)


def test_auto_bound_only_for_single_block():
    deep = ArchitectureDescriptor((2, 3, 3), ((2,) * 3, (2,) * 3), family="relu")
    est = mc_knot_density(deep, InitSpec(seed=3), trials=100)
    assert est.bound is None
    explicit = mc_knot_density(deep, InitSpec(seed=3), trials=100, bound=7.5)
    assert explicit.bound == 7.5
    assert explicit.values == est.values


def test_mc_by_depth_alignment():
    arch = ArchitectureDescriptor((2, 3, 3, 3), ((2,) * 3,) * 3, family="abs")
    ests = mc_knot_density_by_depth(arch, InitSpec(seed=1), trials=100)
    assert len(ests) == 3
    assert all(e.trials == 100 for e in ests)
    # Densities accumulate across depth for every aligned trial.
    for sh, de in zip(ests, ests[1:]):
        diffs = np.array(de.values) - np.array(sh.values)
        assert np.all(diffs >= 0)


def _reference_trials(arch, init, trials):
    """Trial t as one network and one probe, by the documented streams: the
    network from the trial seed (seed; t), the probe from (seed; t, 1 << 20)."""
    for t in range(trials):
        seed_t = np.random.SeedSequence(init.seed, spawn_key=(t,)).generate_state(1, np.uint64)[0]
        net = sample_network(arch, init, seed=int(seed_t))
        ss = np.random.SeedSequence(init.seed, spawn_key=(t, 1 << 20))
        yield net, default_probe(init, arch.dims[0], np.random.Generator(np.random.Philox(ss)))


_BATCH_ARCHS = {  # (one activation layer, deep)
    "relu": ((4, 1), (2, 3, 3, 2)),
    "leaky": ((3, 2), (2, 4, 4, 1)),
    "abs": ((2, 4), (2, 3, 3, 3, 3)),
    "deepspline": ((4, 1), (2, 3, 3, 2)),
    "maxout": ((4, 1), (2, 3, 3, 2)),
    "groupsort": ((4, 4, 4), (2, 4, 4, 4)),
}


def _bytes(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("family", sorted(_BATCH_ARCHS))
def test_batched_trials_match_per_trial_loop(family, monkeypatch):
    default_block = stochastic.TRIAL_BLOCK
    per_unit = {"deepspline": 3, "maxout": 3}.get(family, 2)
    path = PolygonalPath(np.array([[0.5, -1.0], [-1.0, 0.25], [2.0, 0.5]]))
    for dims in _BATCH_ARCHS[family]:
        arch = ArchitectureDescriptor(dims, tuple((per_unit,) * w for w in dims[1:]),
                                      family=family)
        img_path = PolygonalPath(path.vertices @ np.eye(2, dims[0]))
        for dist, seed in (("normal", 11), ("uniform", 12), ("orthogonal", 13)):
            init = InitSpec(weight_dist=dist, bias_dist="uniform" if dist == "uniform"
                            else "normal", sigma_b=0.7, seed=seed)
            trials = list(_reference_trials(arch, init, 100))
            acts = [i for i, l in enumerate(trials[0][0].layers) if not isinstance(l, Affine)]
            density, by_depth = [], []
            for net, p in trials:
                rep = count_knots(net, p, prefixes=acts)
                density.append(rep.density)
                by_depth.append([c / rep.length for c in rep.prefix_counts])
            images = [image_length(net, img_path) for net, _ in trials[:20]]
            for block in (default_block, 1, 7):
                monkeypatch.setattr(stochastic, "TRIAL_BLOCK", block)
                key = (family, dims, dist, block)
                got = mc_knot_density(arch, init, trials=100, bound=1.0).values
                assert _bytes(got) == _bytes(density), key
                got = [e.values for e in mc_knot_density_by_depth(arch, init, trials=100)]
                assert _bytes(got) == _bytes(np.array(by_depth).T), key
                got = mc_image_length(arch, init, img_path, trials=20).values
                assert _bytes(got) == _bytes(images), key


# Recorded with one SeedSequence and Generator per trial, before the keys of
# a call's streams were derived together: per family, a digest of the
# expansion values of the _BATCH_ARCHS networks under four initialisations
# (one with a seed of three words).
PINNED_EXPANSION = {
    "abs": "a15796af0f4a2010",
    "deepspline": "216666419a89f448",
    "groupsort": "648591338907b0f5",
    "leaky": "295e0ce9dab37644",
    "maxout": "83c5768e20e4f7b4",
    "relu": "b34ca95ceaf8371a",
}


@pytest.mark.parametrize("family", sorted(PINNED_EXPANSION))
def test_directional_expansion_pinned(family, monkeypatch):
    per_unit = {"deepspline": 3, "maxout": 3}.get(family, 2)
    for block in (stochastic.TRIAL_BLOCK, 1, 7):
        monkeypatch.setattr(stochastic, "TRIAL_BLOCK", block)
        h = hashlib.sha256()
        for dims in _BATCH_ARCHS[family]:
            arch = ArchitectureDescriptor(dims, tuple((per_unit,) * w for w in dims[1:]),
                                          family=family)
            for dist, seed in (("normal", 11), ("uniform", 12), ("orthogonal", 13),
                               ("normal", 2 ** 70)):
                init = InitSpec(weight_dist=dist, bias_dist="uniform" if dist == "uniform"
                                else "normal", sigma_b=0.7, seed=seed)
                h.update(_bytes(estimate_directional_expansion(arch, init, trials=100).values))
        assert h.hexdigest()[:16] == PINNED_EXPANSION[family], block


# ---------------------------------------------------------------------------
# Spline layers drawn in one call
# ---------------------------------------------------------------------------

def _units_of(row, kaps, sigma_b):
    """The units ScalarCPWL makes of one row of ``_spline_normals``."""
    units, k = [], 0
    for kap in kaps:
        if kap <= 1:
            units.append(ScalarCPWL((), (1.0,), 0.0))
            continue
        z = row[k:k + 2 * kap]
        units.append(ScalarCPWL(tuple(np.sort(sigma_b * z[:kap - 1]).tolist()),
                                tuple(z[kap - 1:-1].tolist()), float(z[-1])))
        k += 2 * kap
    return units


def test_spline_tables_match_scalar_cpwl_units():
    # Random rows of mixed piece counts (one-piece units included): tables
    # bit for bit as ScalarCPWL and unit_tables make them.
    rng = np.random.default_rng(4)
    for kaps, sigma_b in (([3, 1, 2, 5], 1.0), ([2], 0.01), ([4, 4, 4], 30.0), ([1, 1], 1.0)):
        z = rng.standard_normal((200, 2 * sum(k for k in kaps if k > 1)))
        bps, lines, ok = stochastic._spline_layer(z, kaps, sigma_b)
        assert ok.all()
        for t in range(len(z)):
            units = _units_of(z[t], kaps, sigma_b)
            ref = unit_tables(units, max(kaps) - 1)
            assert bps[t].tobytes() == ref[0].tobytes() and lines[t].tobytes() == ref[1].tobytes()


def test_spline_tables_flag_redraws_and_merges():
    # Units of 3, 1 and 2 pieces, sigma_b = 1e6. Row 0 stands; row 1 has two
    # equal breakpoints, row 2 two breakpoints 1e-8 apart (past 1e-9, within
    # MERGE_TOL of their size), row 3 two adjacent slopes within MERGE_TOL:
    # ScalarCPWL refuses or merges those. With sigma_b = 1, breakpoints
    # 1e-10 apart make a valid unit, but one drawn again unit by unit.
    kaps, sigma_b = [3, 1, 2], 1e6
    z = np.tile(np.random.default_rng(5).standard_normal(10), (5, 1))
    z[1, 1] = z[1, 0]
    z[2, 1] = z[2, 0] + 1e-14
    z[3, 8] = z[3, 7] + 1e-14
    z[4, 1] = z[4, 0] + 1e-10
    bps, lines, ok = stochastic._spline_layer(z[:4], kaps, sigma_b)
    assert ok.tolist() == [True, False, False, False]
    with pytest.raises(ValidationError, match="increasing"):
        _units_of(z[1], kaps, sigma_b)
    for t in (2, 3):
        assert sum(len(f.slopes) for f in _units_of(z[t], kaps, sigma_b)) < 6
    ref = unit_tables(_units_of(z[0], kaps, sigma_b), 2)
    assert bps[0].tobytes() == ref[0].tobytes() and lines[0].tobytes() == ref[1].tobytes()
    assert not stochastic._spline_layer(z[4:], kaps, 1.0)[2][0]
    assert sum(len(f.slopes) for f in _units_of(z[4], kaps, 1.0)) == 6


class _CoarseNormals:
    """A generator whose standard normals lie on the quarters plus 0, 1 or 2
    steps, each a function of one draw: equal and nearly equal draws are
    common, and draws still fill in sequence."""

    def __init__(self, rng, step):
        self.rng, self.step = rng, step

    def standard_normal(self, size=None):
        z = self.rng.standard_normal(size)
        return np.round(4.0 * z) / 4.0 + self.step * (np.floor(1e3 * z) % 3)


@pytest.mark.parametrize("sigma_b, step, cases", [
    (1e6, 1e-14, {"redraw": False, "gap merge": True, "slope merge": True}),
    (1.0, 1e-10, {"redraw": True, "gap merge": False, "slope merge": True})])
def test_spline_redraws_match_unit_by_unit_draws(sigma_b, step, cases):
    # Coarse normals force, through the table pass, breakpoints within 1e-9
    # (drawn again unit by unit; "redraw" where ScalarCPWL would keep them)
    # and merges of breakpoints and of slopes: each net it flags is drawn
    # again unit by unit, so tables and knot counts are those of the
    # ScalarCPWL units that the unit-by-unit draw makes of the same streams.
    arch = ArchitectureDescriptor((2, 3, 3, 1), ((3,) * 3, (3,) * 3, (3,)), family="deepspline")
    init = InitSpec(sigma_b=sigma_b)
    keys, _ = stochastic._trial_keys(7, 96, 3, None)
    rekeyed = stochastic._rekeyer()

    def at(key):
        return _CoarseNormals(rekeyed(key), step)

    nets = stochastic._draw_nets(arch, init, keys, at, None, None, 2)
    ref = [stochastic._draw_layers(arch, init, k, at, None, None, 2, stochastic._spline_units)
           for k in keys]
    for net, units in zip(nets, ref):
        for l in (1, 3, 5):
            tables = unit_tables(units[l][1], 2)
            assert net[l][1].tobytes() == tables[0].tobytes()
            assert net[l][2].tobytes() == tables[1].tobytes()
    z = np.array([stochastic._draw_layers(arch, init, k, at, None, None, 2,
                                          stochastic._spline_normals)[1][1] for k in keys])
    z = z.reshape(len(keys), 3, 6)
    b, s = np.sort(sigma_b * z[..., :2], axis=2), z[..., 2:5]
    gap, near = np.diff(b)[..., 0], 1e-12 * np.maximum(1.0, np.abs(b).max(axis=2))
    jump = np.abs(np.diff(s)) <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(s[..., 1:]),
                                                                    np.abs(s[..., :-1])))
    assert cases == {"redraw": bool(((gap > near) & (gap <= 1e-9)).any()),
                     "gap merge": bool(((gap > 1e-9) & (gap <= near)).any()),
                     "slope merge": bool(jump.any())}
    p0, p1 = stochastic._probe_ends(init, np.random.default_rng(8).standard_normal((96, 2)))
    counts = segment_knot_counts(nets, p0, p1, [1, 3, 5])
    assert np.array_equal(counts, segment_knot_counts(ref, p0, p1, [1, 3, 5]))
    assert counts.sum() > 0


# Recorded before a spline layer was drawn in one call: the sha256 of the
# mc_table.csv files of `cpwl mc --family deepspline` with widths 1 and 4,
# plain and --by-depth, under normal, uniform and orthogonal init, per kappa;
# and of the values of a mixed-kappa net (units of one piece included)
# through mc_knot_density(kappa=None).
PINNED_DEEPSPLINE_MC = {2: "1bedb50924ab813c", 3: "d4f5f7a918f1f29e",
                        5: "861095018557a9f1", None: "6ccd50c79de2799a"}


@pytest.mark.parametrize("kappa", [2, 3, 5])
def test_deepspline_mc_tables_pinned(kappa, tmp_path, capsys):
    inits = (["--sigma-b", "0.5"], ["--weight-dist", "uniform", "--bias-dist", "uniform"],
             ["--weight-dist", "orthogonal", "--fan-in-mode", "2/fan-in"])
    h = hashlib.sha256()
    for width in (1, 4):
        for by_depth in ([], ["--by-depth"]):
            for seed, init in enumerate(inits):
                assert main(["mc", "--family", "deepspline", "--kappa", str(kappa), "--d", "2",
                             "--width", str(width), "--depth", "2", "--trials", "100",
                             "--seed", str(seed), "--out", str(tmp_path), *init,
                             *by_depth]) == 0
                h.update((tmp_path / "mc_table.csv").read_bytes())
    assert h.hexdigest()[:16] == PINNED_DEEPSPLINE_MC[kappa]


def test_mixed_kappa_deepspline_density_pinned():
    arch = ArchitectureDescriptor((3, 4, 3, 1), ((1, 3, 2, 5), (4, 1, 2), (3,)),
                                  family="deepspline")
    est = mc_knot_density(arch, InitSpec(sigma_b=0.8, seed=5), trials=100, bound=1.0)
    assert hashlib.sha256(_bytes(est.values)).hexdigest()[:16] == PINNED_DEEPSPLINE_MC[None]


def test_directional_expansion_orthogonal_abs_is_exactly_one():
    arch = ArchitectureDescriptor((4, 4, 4, 4), ((2,) * 4,) * 3, family="abs")
    init = InitSpec(weight_dist="orthogonal", seed=6)
    est = estimate_directional_expansion(arch, init, trials=100)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.se == pytest.approx(0.0, abs=1e-12)


def test_default_probe_length_tracks_init():
    rng = np.random.default_rng(0)
    path = default_probe(InitSpec(sigma_w=2.0, sigma_b=1.0), 3, rng)
    assert path.length == pytest.approx(5.0)
    assert path.dim == 3


def test_mc_image_length_runs():
    arch = relu_arch(2, 2)
    path = PolygonalPath.segment([-1.0, 0.0], [1.0, 0.0])
    est = mc_image_length(arch, InitSpec(seed=9), path, trials=50)
    assert est.trials == 50
    assert est.mean > 0


def test_auto_bound_covers_one_groupsort_stage():
    # The readout stays affine: dims (4, 4, 4) hold one sorting layer, whose
    # bound the library supplies; dims (4, 4) hold none.
    init = InitSpec(seed=5)
    one = ArchitectureDescriptor((4, 4, 4), ((2,) * 4, (2,) * 4), family="groupsort")
    est = mc_knot_density(one, init, trials=100, group_size=2)
    assert est.bound == unit_density_bound("groupsort", init, d=4, group_size=2)
    affine = ArchitectureDescriptor((4, 4), ((2,) * 4,), family="groupsort")
    assert mc_knot_density(affine, init, trials=100).bound is None


def test_auto_bound_needs_a_sorting_layer():
    # Width 3 is no multiple of the group size 2, so the sampler adds no
    # sorting layer: the net is affine, has no knots and gets no bound.
    init = InitSpec(seed=5)
    arch = ArchitectureDescriptor((4, 3, 3), ((2,) * 3, (2,) * 3), family="groupsort")
    net = sample_network(arch, init, group_size=2)
    assert not any(isinstance(layer, GroupSort) for layer in net.layers)
    est = mc_knot_density(arch, init, trials=100, group_size=2)
    assert est.mean == 0.0 and est.bound is None
    # Group size 3 divides the width: one sorting layer, and its bound.
    assert mc_knot_density(arch, init, trials=100, group_size=3).bound == \
        unit_density_bound("groupsort", init, d=4, group_size=3)


def test_groupsort_density_respects_its_bound():
    # One sorting stage on 4 inputs; the readout stays affine, so the bound
    # for a single sorting layer applies.
    arch = ArchitectureDescriptor((4, 4, 4), ((2,) * 4, (2,) * 4), family="groupsort")
    bound = unit_density_bound("groupsort", InitSpec(seed=5), d=4, group_size=2)
    est = mc_knot_density(arch, InitSpec(seed=5), trials=200, group_size=2,
                          bound=bound)
    assert est.bound == pytest.approx(2.0 * math.sqrt(2.0) / math.pi)
    assert est.mean <= est.bound + est.three_se


# ---------------------------------------------------------------------------
# Experiment tables
# ---------------------------------------------------------------------------

def test_mc_table_row_and_csv():
    est = McEstimate.from_values([0.25, 0.35], bound=0.5)
    row = mc_table_row("relu", 4, 1, 2, InitSpec(), est)
    assert row["pass"] is True
    csv = mc_table_csv([row])
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(MC_CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "relu"
    assert cells[7] == repr(est.mean)
    assert cells[10] == "true"


def test_mc_table_handles_missing_bound():
    est = McEstimate.from_values([0.25, 0.35])
    row = mc_table_row("abs", 2, 3, None, InitSpec(), est)
    assert row["pass"] is True  # no bound means nothing to violate
    csv = mc_table_csv([row])
    cells = csv.strip().split("\n")[1].split(",")
    assert cells[3] == ""   # kappa column empty
    assert cells[9] == ""   # bound column empty


def test_mc_table_marks_violations():
    est = McEstimate.from_values([1.0, 1.0, 1.0, 1.2], bound=0.5)
    row = mc_table_row("relu", 1, 1, 2, InitSpec(), est)
    assert row["pass"] is False
    assert "false" in mc_table_csv([row])
