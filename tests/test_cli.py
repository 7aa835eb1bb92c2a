"""JSON schemas and the command-line interface (exit codes, outputs, files)."""
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cpwl
from cpwl.cli import main
from cpwl.core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec,
                       Pointwise, PWLU2D, ValidationError, abs_unit,
                       relu_unit)
from cpwl.geometry import enumerate_regions
from cpwl.paths import PolygonalPath, count_knots, image_length, image_path
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
        lambda d: d["layers"][0].update(type=["affine"]),
        lambda d: d["layers"].__setitem__(0, "affine"),
        lambda d: d.update(input_dim=0),
        # Malformed numbers.
        lambda d: d["layers"][0]["matrix"][1].pop(),
        lambda d: d["layers"][1]["units"][0].update(anchor_value="zero"),
        lambda d: d["layers"][4].update(rank="two"),
        lambda d: d["layers"][6]["readin"].update(offset=[0.0, "x"]),
        # Integer fields must be JSON integers.
        lambda d: d.update(input_dim=True),
        lambda d: d.update(input_dim=2.0),
        lambda d: d["layers"][4].update(rank=2.0),
        lambda d: d["layers"][3].update(group_size=2.7),
        lambda d: d["layers"][3].update(group_size=True),
        lambda d: d["layers"][6].update(grid_m="4"),
        # Every number must be a JSON number: not a numeric string or a bool.
        lambda d: d["layers"][0]["matrix"][0].__setitem__(1, "2"),
        lambda d: d["layers"][0]["offset"].__setitem__(0, "1e0"),
        lambda d: d["layers"][0]["matrix"][1].__setitem__(0, True),
        lambda d: d["layers"][2]["offset"].__setitem__(3, False),
        lambda d: d["layers"][1]["units"][0].update(breakpoints=["0"]),
        lambda d: d["layers"][1]["units"][2].update(slopes=[0.0, True]),
        lambda d: d["layers"][1]["units"][1].update(anchor_value="0"),
        lambda d: d["layers"][1]["units"][3].update(anchor_value=False),
        lambda d: d["layers"][4]["weights"][2][1].__setitem__(0, "0.5"),
        lambda d: d["layers"][4]["offsets"][0].__setitem__(1, True),
        lambda d: d["layers"][6]["values"][3].__setitem__(3, "1"),
        lambda d: d["layers"][6]["values"][0].__setitem__(0, True),
        lambda d: d["layers"][6]["readin"]["matrix"][0].__setitem__(0, True),
    ]:
        doc = json.loads(dumps_canonical(good))
        mutate(doc)
        with pytest.raises(ValidationError):
            network_from_json(doc)
    with pytest.raises(ValidationError):
        network_from_json([1, 2, 3])


def _one_layer_nets() -> dict:
    """A 2-input net of one layer of each type, by type, on integer and
    dyadic data."""
    eye = AffineMap(np.eye(2), np.array([0.0, -1.0]))
    return {Affine: Affine(eye), Pointwise: Pointwise((relu_unit(), abs_unit())),
            Maxout: Maxout(2, np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.zeros((1, 2))),
            GroupSort: GroupSort(2),
            PWLU2D: PWLU2D(3, np.arange(9.0).reshape(1, 3, 3) % 4, (AffineMap(np.eye(2) / 2, np.zeros(2)),))}


def test_every_layer_type_is_tagged_round_tripped_and_counted_exactly():
    from cpwl.geometry import enumerate_regions, exact_cell_count
    from cpwl.switching import _KINDS
    layers = _one_layer_nets()
    assert set(layers) == set(_KINDS)
    for kind, layer in layers.items():
        net = NetworkSpec(2, (layer,))
        text = dumps_canonical(network_to_json(net))
        assert json.loads(text)["layers"][0]["type"] == kind.__name__.lower()
        assert dumps_canonical(network_to_json(network_from_json(json.loads(text)))) == text
        rs = enumerate_regions(net, (-2.0, 2.0))
        pieces = {tuple(r.piece.matrix.ravel().tolist() + r.piece.offset.tolist()) for r in rs.regions}
        assert exact_cell_count(net, (-2.0, 2.0)) == (len(rs), len(pieces)), kind


def test_path_json_round_trip():
    path = PolygonalPath(np.array([[0.0, 0.5], [1.0, -1.0], [2.0, 2.0]]))
    doc = path_to_json(path)
    assert doc == {"vertices": [[0.0, 0.5], [1.0, -1.0], [2.0, 2.0]]}
    back = path_from_json(doc)
    assert np.allclose(back.vertices, path.vertices)
    for doc in ({"points": []}, {"vertices": [[0.0, 1.0], [2.0]]},
                {"vertices": [["a", "b"], [1.0, 2.0]]}, {"vertices": [[0.0], [0.0]]},
                {"vertices": {"x": 1}}, {"vertices": [[0.0, "1"], [1.0, 2.0]]},
                {"vertices": [["0.5", 1.0], [1.0, 2.0]]}, {"vertices": [[0.0, True], [1.0, 2.0]]}):
        with pytest.raises(ValidationError):
            path_from_json(doc)


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


def test_bound_family_refuses_bad_parameters(capsys):
    # Each once ended in a traceback (exit 1) or printed a bound of 0, 4 or 1.
    for flags in (["sort", "--d", "-1"], ["groupsort", "--dims", "2,4,1", "--group-size", "0"],
                  ["groupsort_activation", "--d", "4", "--group-size", "0"],
                  ["pwlu_unit", "--grid-m", "1"], ["pwlu_layer", "--d", "2", "--n-units", "2", "--grid-m", "0"],
                  ["max_pooling", "--d", "2", "--out-dim", "2", "--pool-size", "0"],
                  ["ghh", "--d", "0", "--n-units", "2"], ["relu", "--dims", "2,0,1"],
                  ["ridge", "--d", "2"], ["ridge_net", "--d", "2", "--n-units", "3"]):
        assert main(["bound", "--family"] + flags) == 2, flags
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "region upper bound" not in captured.out


def test_readme_command_block_runs(tmp_path, capsys):
    # Every bound, audit, construct and mc line of the README's command block
    # exits 0 and prints what its "# ->" comment says; every bounded mc row
    # passes. construct and mc write to tmp_path.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    ran, checked, mc, bounded = 0, 0, 0, 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = command.split()
        if argv[:1] != ["cpwl"] or argv[1] not in ("bound", "audit", "construct", "mc"):
            continue
        argv = argv[1:]
        if "--out" in argv:
            del argv[argv.index("--out"):argv.index("--out") + 2]
        if argv[0] in ("construct", "mc"):
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if comment.strip().startswith("->"):
            assert comment.strip()[2:].strip() in out, line
            checked += 1
        if argv[0] == "mc":
            rows = [row for row in out.splitlines() if " bound=" in row]
            assert all(row.endswith(" pass=true") for row in rows), line
            mc, bounded = mc + 1, bounded + len(rows)
        ran += 1
    assert ran >= 10 and checked >= 2 and mc == 2 and bounded >= 1


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


def test_count_without_out_builds_no_region_json(tmp_path, capsys, monkeypatch):
    main(["construct", "--gp", "--d", "2", "--ns", "3,3", "--out", str(tmp_path)])
    argv = ["count", "--net", str(tmp_path / "gp_net.json"), "--box", "-2,2"]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def unwanted(rs):
        raise AssertionError("regions.json built without --out")
    monkeypatch.setattr("cpwl.geometry.region_set_to_json", unwanted)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == expected and len(out.splitlines()) == 4


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


def test_mc_by_depth_uses_group_size(tmp_path):
    # The L=1 row of --by-depth is the plain --depth 1 estimate, at the
    # default group size and at 3 (which --by-depth once ignored: 0.2605).
    def means(*flags):
        assert main(["mc", "--family", "groupsort", "--d", "3", "--width", "6",
                     "--trials", "200", "--seed", "1", "--out", str(tmp_path), *flags]) == 0
        lines = (tmp_path / "mc_table.csv").read_text().strip().split("\n")
        return [float(l.split(",")[7]) for l in lines[1:]]
    for g, mean in (("2", 0.2605), ("3", 0.528)):
        deep = means("--group-size", g, "--depth", "2", "--by-depth")
        assert len(deep) == 2 and deep[0] == means("--group-size", g, "--depth", "1")[0]
        assert deep[0] == pytest.approx(mean, abs=1e-12)


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


def test_mc_needs_an_activation_layer():
    for fam in ("relu", "groupsort"):
        assert main(["mc", "--family", fam, "--depth", "0", "--trials", "100"]) == 2


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


def test_malformed_numbers_exit_2(tmp_path, capsys):
    # A ragged matrix once ended count in a numpy ValueError traceback.
    doc = network_to_json(full_net())
    doc["layers"][0]["matrix"][1].pop()
    (tmp_path / "net.json").write_text(json.dumps(doc))
    save_path(PolygonalPath.segment([0.0, 0.0], [1.0, 1.0]), str(tmp_path / "path.json"))
    (tmp_path / "ragged.json").write_text(json.dumps({"vertices": [[0.0, 1.0], [2.0]]}))
    good = tmp_path / "good.json"
    save_network(full_net(), str(good))
    capsys.readouterr()
    for argv in (["count", "--net", str(tmp_path / "net.json")],
                 ["knots", "--net", str(tmp_path / "net.json"), "--path", str(tmp_path / "path.json")],
                 ["knots", "--net", str(good), "--path", str(tmp_path / "ragged.json")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_count_box_needs_positive_extent(tmp_path, capsys):
    main(["construct", "--gp", "--d", "2", "--ns", "3,3", "--out", str(tmp_path)])
    capsys.readouterr()
    for box in ("1,1", "-1,1,2,2"):
        assert main(["count", "--net", str(tmp_path / "gp_net.json"), "--box", box]) == 2
        assert capsys.readouterr().err == "error: domain box must have positive extent\n"


def test_overflowing_affine_data_is_refused_without_a_warning(tmp_path, capsys):
    # Affine(1e200 I) -> relu -> Affine(1e200 [1, 1]): the pieces overflow. On
    # this path the function has two kinks; knots once printed 0 and exit 0.
    net = NetworkSpec(2, (Affine(AffineMap(1e200 * np.eye(2), np.zeros(2))),
                          Pointwise((relu_unit(),) * 2),
                          Affine(AffineMap(1e200 * np.ones((1, 2)), np.zeros(1)))))
    save_network(net, str(tmp_path / "net.json"))
    save_path(PolygonalPath(np.array([[-3.0, -2.0], [3.0, 2.5]])), str(tmp_path / "path.json"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite affine data"):
            enumerate_regions(net, (-3.0, 3.0))
        for fn in (count_knots, image_length, image_path):
            with pytest.raises(ValidationError, match="non-finite affine data"):
                fn(net, load_path(str(tmp_path / "path.json")))
        for argv in (["count", "--net", str(tmp_path / "net.json"), "--box", "-3,3"],
                     ["knots", "--net", str(tmp_path / "net.json"), "--path", str(tmp_path / "path.json")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: non-finite affine data\n"


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    main(["construct", "--gp", "--d", "2", "--ns", "3,3", "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["count", "--net", str(tmp_path / "gp_net.json"),
                 "--budget", "2"]) == 3
    assert capsys.readouterr().err == "error: cell budget exceeded: 3 > 2 in layer 1 (pointwise)\n"


def test_seed_only_on_commands_that_draw(tmp_path, capsys):
    main(["construct", "--gp", "--d", "2", "--ns", "3,3", "--seed", "1", "--out", str(tmp_path)])
    for argv in (["count", "--net", str(tmp_path / "gp_net.json")],
                 ["audit"], ["bound", "--beta", "2", "3,3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_unknown_mc_family():
    assert main(["mc", "--family", "sigmoid", "--trials", "100"]) == 2


def test_too_few_trials():
    assert main(["mc", "--family", "relu", "--trials", "50"]) == 2


def test_negative_mc_seed_is_validation_error(capsys):
    assert main(["mc", "--family", "relu", "--d", "4", "--trials", "100",
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    assert cfg["cpwl_version"] == cpwl.__version__
    net_bytes = (tmp_path / "gp_net.json").read_bytes()
    assert cfg["input_sha256"] == {"net": hashlib.sha256(net_bytes).hexdigest()}
    save_path(PolygonalPath(np.array([[-1.0, 0.5], [1.0, -0.5]])), str(tmp_path / "p.json"))
    assert main(["knots", "--net", str(tmp_path / "gp_net.json"), "--path",
                 str(tmp_path / "p.json"), "--out", str(tmp_path)]) == 0
    cfg = json.loads((tmp_path / "knots_config.json").read_text())
    assert set(cfg["input_sha256"]) == {"net", "path"}
    assert cfg["input_sha256"]["path"] == hashlib.sha256(
        (tmp_path / "p.json").read_bytes()).hexdigest()
    # No timestamps: a rerun writes the same bytes.
    first = (tmp_path / "knots_config.json").read_bytes()
    main(["knots", "--net", str(tmp_path / "gp_net.json"), "--path",
          str(tmp_path / "p.json"), "--out", str(tmp_path)])
    assert (tmp_path / "knots_config.json").read_bytes() == first
    main(["mc", "--family", "relu", "--trials", "100", "--out", str(tmp_path)])
    cfg = json.loads((tmp_path / "mc_config.json").read_text())
    assert cfg["input_sha256"] == {} and cfg["cpwl_version"] == cpwl.__version__


# ---------------------------------------------------------------------------
# Cold start: scipy loads only where a command solves an LP
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def _cold_cli(cwd, *argv):
    """Run the CLI in a fresh interpreter under ``-X importtime``; returns the
    process and the names of the modules it imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cpwl.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    return proc, modules


def _relu_net(rng, d_in, width):
    return NetworkSpec(d_in, (
        Affine(AffineMap(rng.normal(size=(width, d_in)), rng.normal(size=width))),
        Pointwise(tuple(relu_unit() for _ in range(width))),
        Affine(AffineMap(rng.normal(size=(1, width)), rng.normal(size=1))),
    ))


def _dead_half_net(rng, d_in, width):
    """A relu net with a relu on its output, shifted so that the output is
    zero on about half of the box [-2, 2]^d_in: the dead half is a group of
    cells with one piece, whose facet adjacency count_report tests."""
    net = _relu_net(rng, d_in, width)
    grid = np.stack(np.meshgrid(*[np.linspace(-2.0, 2.0, 7)] * d_in), -1).reshape(-1, d_in)
    out = np.median([cpwl.core.eval(net, x)[0] for x in grid])
    last = net.layers[-1].map
    return NetworkSpec(d_in, net.layers[:-1] + (Affine(AffineMap(last.matrix, last.offset - out)),
                                                Pointwise((relu_unit(),))))


def test_commands_without_lps_never_import_scipy(tmp_path, capsys):
    save_network(_relu_net(np.random.default_rng(2), 2, 4), str(tmp_path / "net2.json"))
    save_network(_relu_net(np.random.default_rng(3), 3, 6), str(tmp_path / "net3.json"))
    for name, counts in (("net2.json", 10), ("net3.json", 36)):
        assert main(["count", "--net", str(tmp_path / name), "--box", "-2,2"]) == 0
        out = capsys.readouterr().out
        # Generic output weights give every cell its own piece; the vertices
        # of 3-input cells decide every split of the well-scaled net.
        assert f"cell_count = {counts}\ndistinct_piece_count = {counts}\n" in out
    for argv in (["mc", "--family", "relu", "--d", "4", "--trials", "100"],
                 ["bound", "--beta", "2", "3,3"],
                 ["construct", "--sawtooth", "4"],
                 ["count", "--net", "net2.json", "--box", "-2,2"],
                 ["count", "--net", "net3.json", "--box", "-2,2"]):
        proc, modules = _cold_cli(tmp_path, *argv)
        assert proc.returncode == 0, proc.stderr
        assert "cpwl.geometry" in modules
        assert not [m for m in modules if m.split(".")[0] == "scipy"], argv


def test_cold_3d_count_of_a_small_row_loads_no_scipy(tmp_path):
    # The 3-input net above with its first unit's row and offset scaled by
    # 1e-4: the same planes, on rows far below the witness LP's absolute
    # feasibility tolerance. The vertices decide every split and every cell
    # has its own piece, so a cold count solves no LP.
    net = _relu_net(np.random.default_rng(3), 3, 6)
    first, scale = net.layers[0].map, np.array([1e-4, 1, 1, 1, 1, 1])
    save_network(NetworkSpec(3, (Affine(AffineMap(first.matrix * scale[:, None],
                                                  first.offset * scale)),) + net.layers[1:]),
                 str(tmp_path / "net3.json"))
    proc, modules = _cold_cli(tmp_path, "count", "--net", "net3.json", "--box", "-2,2")
    assert proc.returncode == 0, proc.stderr
    assert "cell_count = 36\ndistinct_piece_count = 36\n" in proc.stdout
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


def test_cold_count_and_render_of_shared_pieces_load_no_scipy(tmp_path, capsys, monkeypatch):
    # The dead halves are groups of cells with one piece: count_report reads
    # their facet adjacency off the cells' geometry, so a cold count or
    # render never imports scipy, and prints what an in-process run prints.
    monkeypatch.chdir(tmp_path)
    for d_in, width, command in ((2, 4, "count"), (2, 4, "render"), (3, 3, "count")):
        save_network(_dead_half_net(np.random.default_rng(d_in + 1), d_in, width), "net.json")
        argv = [command, "--net", "net.json", "--box", "-2,2"]
        proc, modules = _cold_cli(tmp_path, *argv)
        assert proc.returncode == 0, proc.stderr
        assert "cpwl.geometry" in modules
        assert not [m for m in modules if m.split(".")[0] == "scipy"], argv
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
        counts = dict(line.split(" = ") for line in proc.stdout.splitlines() if " = " in line)
        assert int(counts["distinct_piece_count"]) < int(counts["cell_count"]), argv
