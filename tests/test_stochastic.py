"""Random-network sampling, density bounds, and Monte Carlo estimators."""
import hashlib
import json
import math

import numpy as np
import pytest

from cpwl import stochastic
from cpwl.bounds import ArchitectureDescriptor
from cpwl.core import (Affine, GroupSort, Maxout, Pointwise, ValidationError)
from cpwl.paths import PolygonalPath, count_knots, image_length
from cpwl.serial import network_to_json
from cpwl.stochastic import (MC_CSV_COLUMNS, CompositionalBound, InitSpec,
                             McEstimate, compositional_density_bound,
                             default_probe, estimate_directional_expansion,
                             estimate_unit_density, mc_image_length,
                             mc_knot_density, mc_knot_density_by_depth,
                             mc_table_csv, mc_table_row,
                             relu_crossing_density_oracle, sample_network,
                             unit_density_bound)


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


def test_groupsort_density_respects_its_bound():
    # One sorting stage on 4 inputs; the readout stays affine, so the bound
    # for a single sorting layer applies and must be passed explicitly.
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
