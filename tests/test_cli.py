"""JSON schemas and the command-line interface (exit codes, outputs, files)."""
import json

import numpy as np
import pytest

from cpwl.cli import main
from cpwl.core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec,
                       Pointwise, PWLU2D, ValidationError, abs_unit,
                       relu_unit)
from cpwl.paths import PolygonalPath
from cpwl.serial import (dumps_canonical, load_network, load_path,
                         network_from_json, network_to_json, path_from_json,
                         path_to_json, save_network, save_path)


def full_net():
    rng = np.random.default_rng(11)
    return NetworkSpec(2, (
        Affine(AffineMap(rng.normal(size=(4, 2)), rng.normal(size=4))),
        Pointwise(tuple(relu_unit() for _ in range(4))),
        Affine(AffineMap(rng.normal(size=(4, 4)), rng.normal(size=4))),
        GroupSort(2),
        Maxout(2, rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 2))),
        Affine(AffineMap(rng.normal(size=(2, 3)), rng.normal(size=2))),
        PWLU2D(4, rng.normal(size=(1, 4, 4)), (AffineMap(np.eye(2), np.zeros(2)),)),
    ), metadata="kitchen_sink")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_network_json_round_trip():
    net = full_net()
    doc = network_to_json(net)
    text = dumps_canonical(doc)
    net2 = network_from_json(json.loads(text))
    assert dumps_canonical(network_to_json(net2)) == text
    assert net2.metadata == "kitchen_sink"
    assert net2.dims == net.dims
    from cpwl import core
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        assert np.allclose(core.eval(net, x), core.eval(net2, x))


def test_layer_type_tags():
    doc = network_to_json(full_net())
    tags = [l["type"] for l in doc["layers"]]
    assert tags == ["affine", "pointwise", "affine", "groupsort", "maxout",
                    "affine", "pwlu2d"]
    assert doc["input_dim"] == 2
    assert doc["metadata"] == "kitchen_sink"


def test_metadata_key_omitted_when_empty():
    net = NetworkSpec(1, (Pointwise((relu_unit(),)),))
    assert "metadata" not in network_to_json(net)


def test_single_unit_pwlu_schema_is_flat():
    rng = np.random.default_rng(1)
    net = NetworkSpec(2, (PWLU2D(3, rng.normal(size=(1, 3, 3)),
                                 (AffineMap(np.eye(2), np.zeros(2)),)),))
    spec = network_to_json(net)["layers"][0]
    assert set(spec) == {"type", "grid_m", "values", "readin"}
    assert network_from_json(network_to_json(net)).layers[0].grid_m == 3


def test_multi_unit_pwlu_round_trip():
    rng = np.random.default_rng(2)
    readins = (AffineMap(np.eye(2), np.zeros(2)),
               AffineMap(rng.normal(size=(2, 2)), rng.normal(size=2)))
    net = NetworkSpec(2, (PWLU2D(3, rng.normal(size=(2, 3, 3)), readins),))
    spec = network_to_json(net)["layers"][0]
    assert "units" in spec and len(spec["units"]) == 2
    net2 = network_from_json(network_to_json(net))
    assert np.allclose(net2.layers[0].values, net.layers[0].values)


def test_malformed_network_documents():
    good = network_to_json(full_net())
    for mutate in [
        lambda d: d.pop("input_dim"),
        lambda d: d.pop("layers"),
        lambda d: d["layers"][0].pop("matrix"),
        lambda d: d["layers"][4].pop("weights"),
        lambda d: d["layers"][1].update(units=[]),
        lambda d: d["layers"][0].update(type="conv"),
        lambda d: d.update(input_dim=0),
    ]:
        doc = json.loads(dumps_canonical(good))
        mutate(doc)
        with pytest.raises(ValidationError):
            network_from_json(doc)
    with pytest.raises(ValidationError):
        network_from_json([1, 2, 3])


def test_path_json_round_trip():
    path = PolygonalPath(np.array([[0.0, 0.5], [1.0, -1.0], [2.0, 2.0]]))
    doc = path_to_json(path)
    assert doc == {"vertices": [[0.0, 0.5], [1.0, -1.0], [2.0, 2.0]]}
    back = path_from_json(doc)
    assert np.allclose(back.vertices, path.vertices)
    with pytest.raises(ValidationError):
        path_from_json({"points": []})


def test_file_round_trip(tmp_path):
    net = full_net()
    net_file = tmp_path / "net.json"
    save_network(net, str(net_file))
    assert dumps_canonical(network_to_json(load_network(str(net_file)))) == \
        dumps_canonical(network_to_json(net))
    path = PolygonalPath.segment([0.0, 0.0], [1.0, 1.0])
    path_file = tmp_path / "path.json"
    save_path(path, str(path_file))
    assert np.allclose(load_path(str(path_file)).vertices, path.vertices)


# ---------------------------------------------------------------------------
# bound / audit commands
# ---------------------------------------------------------------------------

def test_bound_beta(capsys):
    assert main(["bound", "--beta", "2", "3,3"]) == 0
    assert "beta(2; 3,3) = 9" in capsys.readouterr().out


def test_bound_family_relu(capsys):
    assert main(["bound", "--family", "relu", "--dims", "2,8,8,1"]) == 0
    out = capsys.readouterr().out
    assert "region upper bound = 2738" in out
    assert "37" in out  # per-layer factors are reported


def test_bound_generic_descriptor(capsys):
    assert main(["bound", "--dims", "1,4,1", "--kappa", "2"]) == 0
    out = capsys.readouterr().out
    assert "alpha-lower-paper                 = 16" in out
    assert "alpha-lower-constructive          = 10" in out
    assert "compositional-upper               = 10" in out
    assert "AUDIT: paper-lower 16 > thm-upper 10" in out


def test_bound_uniform_envelope(capsys):
    assert main(["bound", "--cor36", "1,4,1", "--depth", "3", "--kappa", "2"]) == 0
    out = capsys.readouterr().out
    assert "AUDIT: paper-lower 512 > thm-upper 125" in out
    assert "constructive lower meets the upper bound: 125" in out


def test_bound_requires_some_request():
    assert main(["bound"]) == 2


def test_audit_default(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out
    assert "AUDIT: paper-lower 512 > thm-upper 125" in out


def test_audit_writes_report(tmp_path, capsys):
    assert main(["audit", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert report["audit"]
    assert (tmp_path / "audit_config.json").exists()


# ---------------------------------------------------------------------------
# construct / count / render / knots
# ---------------------------------------------------------------------------

def test_construct_and_count_sawtooth(tmp_path, capsys):
    assert main(["construct", "--sawtooth", "12", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "expected cell_count = 12" in out
    net_file = tmp_path / "saw12.json"
    assert net_file.exists()
    assert main(["count", "--net", str(net_file)]) == 0
    out = capsys.readouterr().out
    assert "cell_count = 12" in out
    assert "distinct_piece_count = 12" in out
    assert "connected_piece_count = 12" in out
    assert "arrangement_upper = 12" in out


def test_construct_gp_render_box_with_negatives(tmp_path, capsys):
    assert main(["construct", "--gp", "--d", "2", "--ns", "3,3",
                 "--out", str(tmp_path)]) == 0
    assert "expected cell_count = 9" in capsys.readouterr().out
    net_file = tmp_path / "gp_net.json"
    # A leading negative box bound must survive argument parsing.
    assert main(["render", "--net", str(net_file), "--box", "-2,2",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cell_count = 9" in out
    svg = (net_file.parent / "regions.svg").read_text()
    assert svg.count("<polygon") == 9
    assert "(9)" in svg
    assert (tmp_path / "count_report.csv").read_text().startswith("cell_count")
    assert (tmp_path / "render_config.json").exists()


def test_render_name_override(tmp_path):
    main(["construct", "--gp", "--d", "2", "--ns", "2,2", "--out", str(tmp_path)])
    assert main(["render", "--net", str(tmp_path / "gp_net.json"),
                 "--box", "-2,2", "--name", "map.svg", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "map.svg").exists()


def test_construct_sawtooth_net_and_extremal(tmp_path, capsys):
    assert main(["construct", "--sawtooth-net", "--dims", "1,4,1",
                 "--kappa", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "expected cell_count = 10" in out
    assert "(upper bound 10)" in out
    assert (tmp_path / "sawtooth_net.json").exists()
    assert main(["construct", "--extremal-sum", "--d", "2", "--ns", "3,3",
                 "--name", "ext.json", "--out", str(tmp_path)]) == 0
    assert "expected distinct_piece_count = 9" in capsys.readouterr().out
    assert (tmp_path / "ext.json").exists()


def test_count_per_coordinate_box(tmp_path, capsys):
    main(["construct", "--gp", "--d", "2", "--ns", "3,3", "--out", str(tmp_path)])
    net = load_network(str(tmp_path / "gp_net.json"))
    from cpwl.geometry import enumerate_regions
    expected = len(enumerate_regions(
        net, domain=(np.array([-2.0, -1.0]), np.array([2.0, 1.0]))))
    capsys.readouterr()
    assert main(["count", "--net", str(tmp_path / "gp_net.json"),
                 "--box", "-2,2,-1,1"]) == 0
    assert f"cell_count = {expected}" in capsys.readouterr().out


def test_count_reruns_are_byte_identical(tmp_path):
    main(["construct", "--gp", "--d", "2", "--ns", "3,3", "--out", str(tmp_path)])
    net = str(tmp_path / "gp_net.json")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["count", "--net", net, "--box", "-2,2", "--out", str(out1)]) == 0
    assert main(["count", "--net", net, "--box", "-2,2", "--out", str(out2)]) == 0
    for name in ("count_report.csv", "regions.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_knots_csv(tmp_path, capsys):
    main(["construct", "--sawtooth-net", "--dims", "1,2,1", "--kappa", "2",
          "--out", str(tmp_path)])
    save_path(PolygonalPath.segment([0.0], [1.0]), str(tmp_path / "probe.json"))
    capsys.readouterr()
    assert main(["knots", "--net", str(tmp_path / "sawtooth_net.json"),
                 "--path", str(tmp_path / "probe.json"), "--prefixes",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "knot_count = 5" in out
    assert "knot_density = 5.0" in out
    assert "prefix_counts = 0,2,2,5" in out
    lines = (tmp_path / "knots.csv").read_text().strip().split("\n")
    assert lines[0] == "param,layer,at_vertex"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1 / 6)
    assert "np.float" not in lines[1]  # plain repr floats only
    assert first[2] == "false"


# ---------------------------------------------------------------------------
# mc command
# ---------------------------------------------------------------------------

def test_mc_relu_row(tmp_path, capsys):
    assert main(["mc", "--family", "relu", "--d", "4", "--trials", "100",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "family=relu W=1 L=1 trials=100" in out
    assert "pass=true" in out
    lines = (tmp_path / "mc_table.csv").read_text().strip().split("\n")
    assert lines[0].startswith("family,W,L,kappa,sigma_w,sigma_b,trials")
    assert lines[1].startswith("relu,1,1,2,")
    assert lines[1].endswith(",true")


def test_mc_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["mc", "--family", "relu", "--trials", "100",
                     "--out", str(out)]) == 0
    assert (a / "mc_table.csv").read_bytes() == (b / "mc_table.csv").read_bytes()


def test_mc_by_depth_rows(tmp_path):
    assert main(["mc", "--family", "abs", "--d", "2", "--width", "2",
                 "--depth", "3", "--by-depth", "--trials", "100",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "mc_table.csv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + one row per depth prefix
    assert [l.split(",")[2] for l in lines[1:]] == ["1", "2", "3"]


def test_mc_groupsort_single_stage_bound(tmp_path, capsys):
    from cpwl.stochastic import InitSpec, unit_density_bound
    expected = unit_density_bound("groupsort", InitSpec(), d=4, group_size=2)
    assert main(["mc", "--family", "groupsort", "--d", "4", "--depth", "1",
                 "--trials", "100", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"bound={expected!r}" in out
    line = (tmp_path / "mc_table.csv").read_text().strip().split("\n")[1]
    assert line.split(",")[1] == "4"  # width defaults to the input dimension


def test_mc_deepspline_needs_kappa():
    assert main(["mc", "--family", "deepspline", "--trials", "100"]) == 2


# ---------------------------------------------------------------------------
# Exit codes and error handling
# ---------------------------------------------------------------------------

def test_missing_file_is_io_error(tmp_path):
    assert main(["count", "--net", str(tmp_path / "absent.json")]) == 1


def test_unparseable_json_is_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["count", "--net", str(bad)]) == 1


def test_bad_schema_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"input_dim": 1, "layers": [{"type": "conv"}]}))
    assert main(["count", "--net", str(bad)]) == 2


def test_budget_exhaustion_exit_code(tmp_path):
    main(["construct", "--gp", "--d", "2", "--ns", "3,3", "--out", str(tmp_path)])
    assert main(["count", "--net", str(tmp_path / "gp_net.json"),
                 "--budget", "2"]) == 3


def test_unknown_mc_family():
    assert main(["mc", "--family", "sigmoid", "--trials", "100"]) == 2


def test_too_few_trials():
    assert main(["mc", "--family", "relu", "--trials", "50"]) == 2


def test_construct_needs_exactly_one_kind(tmp_path):
    assert main(["construct", "--out", str(tmp_path)]) == 2
    assert main(["construct", "--sawtooth", "3", "--gp", "--d", "2",
                 "--ns", "2,2", "--out", str(tmp_path)]) == 2
    assert main(["construct", "--sawtooth", "0", "--out", str(tmp_path)]) == 2


def test_render_rejects_1d_network(tmp_path):
    main(["construct", "--sawtooth", "4", "--out", str(tmp_path)])
    assert main(["render", "--net", str(tmp_path / "saw4.json"),
                 "--box", "0,1", "--out", str(tmp_path)]) == 2


def test_config_files_record_arguments(tmp_path):
    main(["construct", "--gp", "--d", "2", "--ns", "3,3", "--out", str(tmp_path)])
    assert main(["count", "--net", str(tmp_path / "gp_net.json"),
                 "--box", "-2,2", "--out", str(tmp_path)]) == 0
    cfg = json.loads((tmp_path / "count_config.json").read_text())
    assert cfg["box"] == "-2,2"
    assert cfg["command"] == "count"
    assert "func" not in cfg
