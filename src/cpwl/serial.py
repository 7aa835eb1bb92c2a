"""Canonical JSON serialization for networks and paths.

Canonical form: sorted keys, no trailing whitespace, floats in Python's
shortest round-trip representation — writing then reading reproduces the
object exactly, and equal objects serialize to identical bytes.
"""
from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .core import (Affine, AffineMap, GroupSort, Maxout, NetworkSpec,
                   Pointwise, PWLU2D, ScalarCPWL, ValidationError)
from .paths import PolygonalPath


def _affine_map_to_json(m: AffineMap) -> dict:
    return {"matrix": m.matrix.tolist(), "offset": m.offset.tolist()}


def _numbers(*lists) -> None:
    """Refuses a value in ``lists`` that is not a JSON number (a bool or a
    string, say)."""
    if not {int, float}.issuperset(map(type, chain(*lists))):
        bad = next(x for x in chain(*lists) if type(x) not in (int, float))
        raise TypeError(f"expected a JSON number, got {bad!r}")


def _affine_map_from_json(obj) -> AffineMap:
    return AffineMap(obj["matrix"], obj["offset"])


def _integer(spec: dict, key: str) -> int:
    """``spec[key]``, which must be a JSON integer: not a bool, float or string."""
    if type(spec[key]) is not int:
        raise TypeError(f"{key} must be an integer, got {spec[key]!r}")
    return spec[key]


def _pwlu2d_to_json(layer: PWLU2D) -> dict:
    units = [{"values": v.tolist(), "readin": _affine_map_to_json(r)}
             for v, r in zip(layer.values, layer.readins)]
    # One unit is written flat, more as a list of units.
    return {"grid_m": layer.grid_m, **(units[0] if len(units) == 1 else {"units": units})}


def _pwlu2d_from_json(spec: dict) -> PWLU2D:
    units = spec["units"] if "units" in spec else [spec]
    return PWLU2D(_integer(spec, "grid_m"), np.array([u["values"] for u in units], dtype=float),
                  tuple(_affine_map_from_json(u["readin"]) for u in units))


# Every layer type by its JSON tag, the class name in lower case: its fields
# from a layer, the layer from its fields, and the lists of their numbers.
_LAYER_TYPES = {cls.__name__.lower(): entry for cls, *entry in (
    (Affine, lambda l: _affine_map_to_json(l.map), lambda spec: Affine(_affine_map_from_json(spec)),
     lambda spec: (*spec["matrix"], spec["offset"])),
    (Pointwise, lambda l: {"units": [{"breakpoints": list(u.breakpoints), "slopes": list(u.slopes),
                                      "anchor_value": u.anchor_value} for u in l.units]},
     lambda spec: Pointwise(tuple(ScalarCPWL(tuple(u["breakpoints"]), tuple(u["slopes"]),
                                             float(u["anchor_value"])) for u in spec["units"])),
     lambda spec: [v for u in spec["units"] for v in (u["breakpoints"], u["slopes"], [u["anchor_value"]])]),
    (Maxout, lambda l: {"rank": l.rank, "weights": l.weights.tolist(), "offsets": l.offsets.tolist()},
     lambda spec: Maxout(_integer(spec, "rank"), np.array(spec["weights"], dtype=float),
                         np.array(spec["offsets"], dtype=float)),
     lambda spec: (*chain(*spec["weights"]), *spec["offsets"])),
    (GroupSort, lambda l: {"group_size": l.group_size},
     lambda spec: GroupSort(_integer(spec, "group_size")), lambda spec: ()),
    (PWLU2D, _pwlu2d_to_json, _pwlu2d_from_json,
     lambda spec: [v for u in spec.get("units", [spec])
                   for v in (*u["values"], *u["readin"]["matrix"], u["readin"]["offset"])]))}


def _layer_type(tag, where: str) -> tuple:
    """(to_json, from_json, numbers) of the layer type ``tag``."""
    if not isinstance(tag, str) or tag not in _LAYER_TYPES:
        raise ValidationError(f"{where}: unknown layer type {tag!r}")
    return _LAYER_TYPES[tag]


def network_to_json(net: NetworkSpec) -> dict:
    layers = []
    for i, layer in enumerate(net.layers):
        tag = type(layer).__name__.lower()
        layers.append({"type": tag, **_layer_type(tag, f"layer {i}")[0](layer)})
    doc = {"input_dim": net.input_dim, "layers": layers}
    if net.metadata:
        doc["metadata"] = net.metadata
    return doc


def network_from_json(obj) -> NetworkSpec:
    if not isinstance(obj, dict):
        raise ValidationError("network document must be a JSON object")
    if "input_dim" not in obj or "layers" not in obj:
        raise ValidationError("network document needs input_dim and layers")
    d = obj["input_dim"]
    if type(d) is not int or d < 1:
        raise ValidationError("input_dim must be a positive integer")
    if not isinstance(obj["layers"], list):
        raise ValidationError("layers must be a list")
    layers = []
    for i, spec in enumerate(obj["layers"]):
        tag = spec.get("type") if isinstance(spec, dict) else None
        _, from_json, numbers = _layer_type(tag, f"layer {i}")
        try:
            _numbers(*numbers(spec))
            layers.append(from_json(spec))
        except (KeyError, TypeError, IndexError, ValueError) as e:
            # Missing fields, wrong types, malformed numbers, invalid layers.
            raise ValidationError(f"layer {i}: malformed {tag} layer ({e})") from e
    return NetworkSpec(d, tuple(layers), metadata=str(obj.get("metadata", "")))


def path_to_json(path: PolygonalPath) -> dict:
    return {"vertices": path.vertices.tolist()}


def path_from_json(obj) -> PolygonalPath:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValidationError("path document needs a vertices list")
    try:
        _numbers(*obj["vertices"])
        return PolygonalPath(np.array(obj["vertices"], dtype=float))
    except (TypeError, ValueError) as e:
        raise ValidationError(f"malformed path vertices ({e})") from e


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def save_network(net: NetworkSpec, file_path: str) -> None:
    with open(file_path, "w") as f:
        f.write(dumps_canonical(network_to_json(net)))


def load_network(file_path: str) -> NetworkSpec:
    with open(file_path) as f:
        return network_from_json(json.load(f))


def save_path(path: PolygonalPath, file_path: str) -> None:
    with open(file_path, "w") as f:
        f.write(dumps_canonical(path_to_json(path)))


def load_path(file_path: str) -> PolygonalPath:
    with open(file_path) as f:
        return path_from_json(json.load(f))
