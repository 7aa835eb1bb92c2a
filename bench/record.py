"""Record the reference outputs that ``run.py`` checks jobs against.

For each workload and seed, runs the job list once and stores, per job, the
four region counts (cells, distinct, connected, arrangement upper bound) or
the sha256 of ``mc_table.csv``; for 2-input affine+pointwise nets it also
stores (cells, distinct) from the rational engine ``exact_cell_count``.
Run it only on the commit whose outputs are the reference:

    python3 bench/record.py --seeds 0-20
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import run
from corpus import WORKLOADS, write_inputs


def record(cli, workload: str, seed: int) -> dict:
    work = os.path.join(run.WORK, f"record-{workload}-s{seed}")
    write_inputs(workload, seed, work)
    with open(os.path.join(work, "jobs.json")) as f:
        jobs = json.load(f)["jobs"]
    results = run.run_pass(cli, jobs, work)
    refs = {}
    for job, res in zip(jobs, results):
        if res["rc"] != 0:
            print(f"{workload} seed {seed} {job['id']}: exit code {res['rc']}", file=sys.stderr)
            continue
        refs[job["id"]] = (run.mc_digest(res) if job["kind"] == "mc"
                           else list(run.region_counts(job["kind"], res)))
    return {"jobs": refs, "exact": run.exact_counts(jobs, work, None)}


def write_refs(path: str, commit: str, seeds: dict) -> None:
    """JSON with one line per seed."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in seeds.items()]
    with open(path, "w") as f:
        f.write('{"commit": %s, "seeds": {\n%s\n}}\n' % (json.dumps(commit), ",\n".join(lines)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-20")
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, run.SRC)
    from cpwl import cli
    os.makedirs(run.REFS, exist_ok=True)
    for workload in WORKLOADS:
        seeds = {str(seed): record(cli, workload, seed) for seed in range(first, last + 1)}
        write_refs(os.path.join(run.REFS, workload + ".json"), run.commit(), seeds)
        print(f"{workload}: seeds {first}-{last} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
