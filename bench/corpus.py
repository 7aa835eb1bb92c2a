"""Seeded inputs and job lists for the benchmark workloads.

Every network is drawn here with numpy and written in the network JSON
schema, so the inputs do not change when the program's own samplers change.
The same (workload, seed) always gives the same files and the same jobs.

Run as a script, this module is the timed set-up step: it imports
``cpwl.cli`` (with numpy and scipy) in a fresh interpreter and writes the
inputs of one workload::

    python3 bench/corpus.py --workload regions-2d --seed 1 --out .bench_work/x
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

WORKLOADS = ("regions-2d", "regions-3d", "mc-shallow", "mc-deep")

# Passes over the job list in one run. A job's latency is the median of its
# scaled times over the passes, and the count is fixed, so that both sides
# of a comparison take it over the same number of samples. Each count keeps
# a run's passes near 20 s on a 2-core machine.
PASSES = {"regions-2d": 3, "regions-3d": 3, "mc-shallow": 8, "mc-deep": 3}

# ---------------------------------------------------------------------------
# Network documents
# ---------------------------------------------------------------------------

def _unit(kind: str, rng: np.random.Generator | None = None) -> dict:
    if kind == "relu":
        return {"breakpoints": [0.0], "slopes": [0.0, 1.0], "anchor_value": 0.0}
    if kind == "abs":
        return {"breakpoints": [0.0], "slopes": [-1.0, 1.0], "anchor_value": 0.0}
    if kind == "leaky":
        return {"breakpoints": [0.0], "slopes": [0.1, 1.0], "anchor_value": 0.0}
    # deepspline: 3 pieces, breakpoints at least 0.05 apart
    while True:
        bps = np.sort(rng.standard_normal(2))
        if np.all(np.diff(bps) > 0.05):
            break
    return {"breakpoints": bps.tolist(),
            "slopes": rng.standard_normal(3).tolist(),
            "anchor_value": float(rng.standard_normal())}


def _affine(rng: np.random.Generator, n_out: int, n_in: int) -> dict:
    return {"type": "affine",
            "matrix": rng.standard_normal((n_out, n_in)).tolist(),
            "offset": rng.standard_normal(n_out).tolist()}


def pointwise_net(rng, kind: str, dims: tuple) -> dict:
    """Affine + activation per hidden width, affine read-out."""
    layers = []
    for l in range(len(dims) - 1):
        layers.append(_affine(rng, dims[l + 1], dims[l]))
        if l < len(dims) - 2:
            layers.append({"type": "pointwise",
                           "units": [_unit(kind, rng) for _ in range(dims[l + 1])]})
    return {"input_dim": dims[0], "layers": layers, "metadata": f"{kind}{dims}"}


def relu_dead_net(rng, dims: tuple, half: float) -> dict:
    """Relu net with a relu on its scalar output, shifted so that the output
    is zero on half of the box [-half, half]^d. The dead half is one large
    group of cells with the same (zero) piece, at a size that varies little
    from seed to seed."""
    doc = pointwise_net(rng, "relu", dims)
    doc["metadata"] = f"relu_dead{dims}"
    g = np.linspace(-half, half, 33)
    X = np.stack(np.meshgrid(*([g] * dims[0]), indexing="ij"), -1).reshape(-1, dims[0])
    for layer in doc["layers"]:
        if layer["type"] == "affine":
            X = X @ np.array(layer["matrix"]).T + np.array(layer["offset"])
        else:
            X = np.maximum(X, 0.0)
    out = doc["layers"][-1]
    out["offset"] = [out["offset"][0] - float(np.median(X[:, 0]))]
    doc["layers"].append({"type": "pointwise", "units": [_unit("relu")]})
    return doc


def maxout_net(rng, dims: tuple, rank: int) -> dict:
    layers = []
    for l in range(len(dims) - 2):
        layers.append({"type": "maxout", "rank": rank,
                       "weights": rng.standard_normal((dims[l + 1], rank, dims[l])).tolist(),
                       "offsets": rng.standard_normal((dims[l + 1], rank)).tolist()})
    layers.append(_affine(rng, dims[-1], dims[-2]))
    return {"input_dim": dims[0], "layers": layers, "metadata": f"maxout{rank}{dims}"}


def groupsort_net(rng, dims: tuple, group: int = 2) -> dict:
    layers = []
    for l in range(len(dims) - 1):
        layers.append(_affine(rng, dims[l + 1], dims[l]))
        if l < len(dims) - 2:
            layers.append({"type": "groupsort", "group_size": group})
    return {"input_dim": dims[0], "layers": layers, "metadata": f"groupsort{dims}"}


def pwlu_net(rng, grid_m: int) -> dict:
    return {"input_dim": 2, "metadata": f"pwlu2d_m{grid_m}", "layers": [
        {"type": "pwlu2d", "grid_m": grid_m,
         "values": rng.standard_normal((grid_m, grid_m)).tolist(),
         "readin": {"matrix": (0.4 * rng.standard_normal((2, 2))).tolist(),
                    "offset": (0.2 * rng.standard_normal(2)).tolist()}},
        _affine(rng, 1, 1)]}


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------
# A job is one `cpwl` command line. "{work}" in argv stands for the
# workload's work directory. `exact` marks 2-input affine+pointwise nets,
# whose cell and distinct-piece counts the rational engine can decide.

BOX = "-3,3"


def _net_job(jobs, nets, job_id, doc, command, box=BOX, exact=False):
    fname = f"nets/{job_id}.json"
    nets[fname] = doc
    argv = [command, "--net", "{work}/" + fname]
    if box is not None:
        argv += ["--box", box]
    if command == "render":
        argv += ["--out", "{work}/out/" + job_id]
    jobs.append({"id": job_id, "kind": command, "argv": argv, "exact": exact})


def _regions_2d(rng):
    jobs, nets = [], {}
    add = lambda *a, **k: _net_job(jobs, nets, *a, **k)  # noqa: E731
    # Families whose pieces are all distinct: enumeration only, no LP in
    # count_report. They are most of the jobs, so job_p50_s shows the fixed
    # cost of a job (start-up, loading, output).
    for fam in ("abs", "leaky", "spline"):
        for i in range(27 if fam != "spline" else 18):
            add(f"{fam}-{i:02d}", pointwise_net(rng, fam, (2, 4, 4, 1)), "count", exact=True)
        add(f"{fam}-render", pointwise_net(rng, fam, (2, 4, 4, 1)), "render", exact=True)
    for i in range(15):
        add(f"maxout2-{i:02d}", maxout_net(rng, (2, 4, 4, 1), 2), "count")
    for i in range(6):
        add(f"maxout3-{i}", maxout_net(rng, (2, 3, 3, 1), 3), "count")
    for i in range(18):
        add(f"groupsort-{i:02d}", groupsort_net(rng, (2, 4, 4, 1)), "count")
    add("pwlu2d", pwlu_net(rng, 4), "count")
    add("maxout2-render", maxout_net(rng, (2, 4, 4, 1), 2), "render")
    # Relu nets with a relu output that is zero on half the box: groups of
    # cells with the same piece, so count_report's pairwise LP adjacency test
    # runs. Many small nets keep the total cost steady from seed to seed, and
    # put the tail job (the 11th slowest) in the slow end of the (2,3,1)
    # class. The few (2,4,1) nets, on a box that holds nearly all their line
    # crossings, have the largest groups.
    for i in range(40):
        add(f"relu3-{i:02d}", relu_dead_net(rng, (2, 3, 1), 3.0), "count", exact=True)
    for i in range(4):
        add(f"relu4-{i}", relu_dead_net(rng, (2, 4, 1), 10.0), "count",
            box="-10,10", exact=True)
    for i in range(2):
        add(f"relu3-render-{i}", relu_dead_net(rng, (2, 3, 1), 3.0), "render", exact=True)
    # Unbounded domain: the R_max box of the polygon backend.
    add("abs-unbounded-0", pointwise_net(rng, "abs", (2, 4, 4, 1)), "count", box=None, exact=True)
    add("abs-unbounded-1", pointwise_net(rng, "abs", (2, 4, 4, 1)), "count", box=None, exact=True)
    add("relu3-unbounded", relu_dead_net(rng, (2, 3, 1), 3.0), "count", box=None, exact=True)
    add("maxout2-unbounded", maxout_net(rng, (2, 4, 4, 1), 2), "count", box=None)
    return jobs, nets


def _regions_3d(rng):
    jobs, nets = [], {}
    add = lambda *a, **k: _net_job(jobs, nets, *a, **k)  # noqa: E731
    # Classes of near-equal cost. The class sizes put the median job inside
    # the abs (3,5,1) class and the tail job inside the maxout (3,3,1) class.
    # The costs vary little from seed to seed, so the list is short.
    for i in range(2):
        add(f"abs-4-4-unbounded-{i}", pointwise_net(rng, "abs", (4, 4, 1)), "count", box=None)
    for i in range(3):
        add(f"groupsort-3-4-4-box-{i}", groupsort_net(rng, (3, 4, 4, 1)), "count")
    for i in range(2):
        add(f"leaky-3-4-box-{i}", pointwise_net(rng, "leaky", (3, 4, 1)), "count")
    for i in range(2):
        add(f"abs-3-4-unbounded-{i}", pointwise_net(rng, "abs", (3, 4, 1)), "count", box=None)
    for i in range(3):
        add(f"maxout3-4-2-unbounded-{i}", maxout_net(rng, (4, 2, 1), 3), "count", box=None)
    for i in range(6):
        add(f"abs-3-5-box-{i}", pointwise_net(rng, "abs", (3, 5, 1)), "count")
    for i in range(2):
        add(f"spline-3-3-unbounded-{i}", pointwise_net(rng, "spline", (3, 3, 1)), "count", box=None)
    for i in range(13):
        add(f"maxout3-3-3-unbounded-{i:02d}", maxout_net(rng, (3, 3, 1), 3), "count", box=None)
    return jobs, nets


# name -> (flags, number of jobs)
MC_SHALLOW = {
    # criterion 10's traffic: one relu unit and one rank-3 maxout unit on 4
    # inputs, and a group-sort net (4,4,4). 100 trials per job keep a pass
    # short, so that each job runs many times in a run. Maxout, the slowest,
    # has the most jobs, so that the tail job falls inside its class.
    "relu": (["--family", "relu", "--d", "4", "--trials", "100"], 12),
    "maxout": (["--family", "maxout", "--rank", "3", "--d", "4", "--trials", "100"], 15),
    "groupsort": (["--family", "groupsort", "--d", "4", "--group-size", "2",
                   "--trials", "100"], 12),
}
_DEEP = ["--d", "2", "--depth", "8", "--fan-in-mode", "2/fan-in", "--by-depth",
         "--trials", "100"]
MC_DEEP = {
    # criterion 11's traffic: abs nets of depth 8 with fan-in init on 2
    # inputs; 100 trials per job, the program's minimum. With seven jobs the
    # median is the fastest of the three width-4 jobs, not one job's cost,
    # and job_tail_s is the slowest job (width 8).
    "abs2": (["--family", "abs", "--width", "2"] + _DEEP, 1),
    "abs4": (["--family", "abs", "--width", "4"] + _DEEP, 3),
    "abs8": (["--family", "abs", "--width", "8"] + _DEEP, 1),
    "spline": (["--family", "deepspline", "--kappa", "3", "--d", "2", "--width", "4",
                "--depth", "4", "--by-depth", "--trials", "100"], 1),
    "maxout": (["--family", "maxout", "--rank", "2", "--d", "2", "--width", "4",
                "--depth", "3", "--by-depth", "--trials", "100"], 1),
}


def _mc(rng, families: dict):
    jobs = []
    for name, (flags, count) in families.items():
        for i in range(count):
            job_id = f"{name}-{i:02d}"
            seed = int(rng.integers(0, 2 ** 31))
            jobs.append({"id": job_id, "kind": "mc", "exact": False,
                         "argv": ["mc"] + flags + ["--seed", str(seed),
                                                   "--out", "{work}/out/" + job_id]})
    return jobs, {}


def workload_inputs(workload: str, seed: int):
    """(jobs, nets) of one workload; nets maps a file name to its document."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "regions-2d":
        return _regions_2d(rng)
    if workload == "regions-3d":
        return _regions_3d(rng)
    if workload == "mc-shallow":
        return _mc(rng, MC_SHALLOW)
    return _mc(rng, MC_DEEP)


def write_inputs(workload: str, seed: int, out: str) -> str:
    """Write the nets and ``jobs.json`` under ``out``; returns a digest of
    every file written, so that repeated set-ups can be compared."""
    jobs, nets = workload_inputs(workload, seed)
    digest = hashlib.sha256()
    files = {name: json.dumps(doc, sort_keys=True) for name, doc in nets.items()}
    files["jobs.json"] = json.dumps({"workload": workload, "seed": seed, "jobs": jobs},
                                    sort_keys=True, indent=1)
    for name in sorted(files):
        path = os.path.join(out, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(files[name])
        digest.update(name.encode() + b"\0" + files[name].encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import cpwl.cli  # noqa: F401  (the import cost is part of set-up)
    print(write_inputs(args.workload, args.seed, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
