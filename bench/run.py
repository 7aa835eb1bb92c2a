"""Benchmark of the ``cpwl`` command line.

Runs one workload as a closed loop with a single client: the workload's
fixed job list is run job after job, in this process and without threads,
each job an in-process ``cpwl.cli.main(argv)`` call. The list runs a fixed
number of passes per workload (``corpus.PASSES``); ``--seconds`` only caps
them (at least two run). Times are scaled to a reference speed of the
machine, measured while the jobs run by a fixed kernel (see ``speed.py``).
Every job's output is checked. The last line of standard output is one
JSON object with the metrics: end-to-end ones with ``--trace 0``; with
``--trace 1`` per-layer ones from wrapped layer boundaries (see
``spans.py``), from passes that alternate with untraced passes so that the
tracing overhead shows.

    python3 bench/run.py --workload regions-2d --seed 1 --seconds 24 --trace 0

Run it from anywhere inside a checkout of the repository: it reads the
program from ``src/`` and writes only under ``.bench_work/``.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: BLAS threads would make timings depend on the
# machine's load and core count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFS = os.path.join(BENCH, "refs")
SETUPS = 5
MIN_PASSES = 2

sys.path.insert(0, BENCH)
from corpus import PASSES, WORKLOADS  # noqa: E402
from speed import Speed  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Set-up: a fresh interpreter imports cpwl.cli and writes the inputs
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, work: str, speed) -> tuple[float, float, str]:
    """(start, end, digest of the files written) of one set-up, with a
    kernel sample of the machine's speed before and after it."""
    speed.sample()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "corpus.py"),
                           "--workload", workload, "--seed", str(seed), "--out", work],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    t1 = time.perf_counter()
    speed.sample()
    if proc.returncode != 0:
        raise BenchError("set-up failed:\n" + proc.stderr)
    return t0, t1, proc.stdout.strip()


def setups_after(passes: int) -> list[int]:
    """How many repeat set-ups follow each pass. The SETUPS - 1 repeats are
    spread over the run, so that their median does not hang on one slow
    spell of the machine."""
    after = [0] * passes
    for j in range(SETUPS - 1):
        after[j * passes // (SETUPS - 1)] += 1
    return after


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def run_job(cli, job: dict, work: str, rec=None) -> dict:
    """One in-process CLI call: latency, exit code, printed text, and the
    bytes of the small files the checks read."""
    argv = [a.replace("{work}", work) for a in job["argv"]]
    out = io.StringIO()
    if rec is not None:
        rec.job = job["id"]
        span = rec.begin("cli")
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects its arguments
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # a crash is a failed job, not the end of the run
        rc = None
        out.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if rec is not None:
        rec.end(span)
    files = {}
    if "--out" in argv:
        out_dir = argv[argv.index("--out") + 1]
        for name in ("count_report.csv", "mc_table.csv", "regions.svg"):
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as f:
                    files[name] = f.read()
                os.remove(path)
    return {"id": job["id"], "start": t0, "end": t0 + seconds, "seconds": seconds,
            "rc": rc, "stdout": out.getvalue(), "files": files}


def run_pass(cli, jobs: list, work: str, rec=None) -> list[dict]:
    return [run_job(cli, job, work, rec) for job in jobs]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

COUNT_KEYS = ("cell_count", "distinct_piece_count", "connected_piece_count",
              "arrangement_upper")


def region_counts(kind: str, res: dict) -> tuple[int, ...]:
    """(cells, distinct, connected, arrangement upper bound) as printed by
    `count`, or as written to count_report.csv by `render`."""
    if kind == "count":
        vals = dict(line.split(" = ", 1) for line in res["stdout"].splitlines() if " = " in line)
    else:
        head, row = res["files"]["count_report.csv"].decode().splitlines()[:2]
        vals = dict(zip(head.split(","), row.split(",")))
    return tuple(int(vals[k]) for k in COUNT_KEYS)


def mc_digest(res: dict) -> str:
    return hashlib.sha256(res["files"]["mc_table.csv"]).hexdigest()


def check(job: dict, res: dict, ref, exact) -> str | None:
    """Reason the job failed, or None."""
    if res["rc"] != 0:
        return f"exit code {res['rc']}: {res['stdout'].strip().splitlines()[-1:]}"
    try:
        if job["kind"] == "mc":
            return check_mc(job, res, ref)
        return check_regions(job, res, ref, exact)
    except (KeyError, ValueError, IndexError) as e:
        return f"unreadable output ({type(e).__name__}: {e})"


def check_regions(job, res, ref, exact) -> str | None:
    got = region_counts(job["kind"], res)
    cells, distinct, connected, upper = got
    if not distinct <= connected <= cells <= upper:
        return f"counts {got} break distinct <= connected <= cells <= arrangement_upper"
    if exact is not None and (cells, distinct) != tuple(exact):
        return f"(cells, distinct) = {(cells, distinct)}, rational engine gives {tuple(exact)}"
    if ref is not None and got != tuple(ref):
        return f"counts {got}, recorded at the seed {tuple(ref)}"
    if job["kind"] == "render" and not res["files"].get("regions.svg", b"").startswith(b"<svg"):
        return "no SVG written"
    return None


def check_mc(job, res, ref) -> str | None:
    lines = res["files"]["mc_table.csv"].decode().splitlines()
    head = lines[0].split(",")
    rows = [dict(zip(head, line.split(","))) for line in lines[1:]]
    argv = job["argv"]
    trials = argv[argv.index("--trials") + 1]
    depth = int(argv[argv.index("--depth") + 1]) if "--depth" in argv else 1
    if len(rows) != (depth if "--by-depth" in argv else 1):
        return f"{len(rows)} CSV rows"
    for row in rows:
        if row["trials"] != trials:
            return f"row L={row['L']} has {row['trials']} trials, asked for {trials}"
        if row["bound"] and row["pass"] != "true":
            return f"row L={row['L']}: mean {row['mean']} exceeds bound {row['bound']} + 3 SE"
    if ref is not None and mc_digest(res) != ref:
        return "mc_table.csv differs from the digest recorded at the seed"
    return None


def load_refs(workload: str, seed: int) -> dict | None:
    path = os.path.join(REFS, workload + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)["seeds"].get(str(seed))


def exact_counts(jobs: list, work: str, refs) -> dict:
    """Rational-engine (cells, distinct) of every exact job: recorded ones
    when the seed has references, computed otherwise."""
    if refs is not None:
        return {j["id"]: refs["exact"][j["id"]] for j in jobs if j["exact"]}
    from cpwl.geometry import exact_cell_count
    from cpwl.serial import load_network
    out = {}
    for j in jobs:
        if j["exact"]:
            argv = [a.replace("{work}", work) for a in j["argv"]]
            net = load_network(argv[argv.index("--net") + 1])
            box = None
            if "--box" in argv:
                lo, hi = (float(v) for v in argv[argv.index("--box") + 1].split(","))
                box = (lo, hi)
            out[j["id"]] = list(exact_cell_count(net, box))
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def trials_of(job: dict) -> int:
    return int(job["argv"][job["argv"].index("--trials") + 1]) if job["kind"] == "mc" else 0


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:  # no git program
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the cpwl command line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "cpwl", "cli.py")):
        raise BenchError(f"no cpwl sources under {SRC}; run from a checkout of the repository")

    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    speed = Speed()
    speed.warm_up()
    setups = [set_up(args.workload, args.seed, work, speed)]
    with open(os.path.join(work, "jobs.json")) as f:
        jobs = json.load(f)["jobs"]

    sys.path.insert(0, SRC)
    import numpy
    import scipy
    from cpwl import cli
    import spans as tracing

    # The workload's passes: plain ones, or plain and traced in turn. The
    # repeat set-ups run between passes and rewrite the same files.
    rec = tracing.SpanRecorder() if args.trace else None
    plain, traced = [], []
    passes = PASSES[args.workload]
    for repeats in setups_after(passes):
        if rec is not None and len(traced) < len(plain):
            tracing.install(rec)
            try:
                traced.append(run_pass(cli, jobs, work, rec))
            finally:
                rec.restore()
        else:
            with speed:  # samples the machine's speed while the jobs run
                plain.append(run_pass(cli, jobs, work))
        setups += [set_up(args.workload, args.seed, work, speed) for _ in range(repeats)]
        done = plain + traced
        if len(done) >= MIN_PASSES and sum(map(pass_seconds, done)) > args.seconds:
            break  # the safety cap, for a machine far slower than planned for
    # Before the checks, which may run the rational engine in this process.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [set_up(args.workload, args.seed, work, speed)
               for _ in range(SETUPS - len(setups))]
    if len({digest for _, _, digest in setups}) != 1:
        raise BenchError("set-up wrote different inputs on repeated runs")

    refs = load_refs(args.workload, args.seed)
    exact = exact_counts(jobs, work, refs)
    failures, failed = {}, 0
    for results in done:
        for job, res in zip(jobs, results):
            ref = refs["jobs"].get(job["id"]) if refs is not None else None
            why = check(job, res, ref, exact.get(job["id"]))
            if why is not None:
                failed += 1
                failures.setdefault(job["id"], why)
    attempted = len(done) * len(jobs)

    # Every time is scaled to the kernel's reference speed (speed.py), by
    # the kernel samples taken around it, and leaves out those taken within
    # it. A job's latency is the median of its scaled times over the passes.
    for results in plain:
        for res in results:
            res["seconds"], res["scaled"] = speed.timed(res["start"], res["end"])
    latencies = [statistics.median(results[i]["scaled"] for results in plain)
                 for i in range(len(jobs))]
    raw = [statistics.median(results[i]["seconds"] for results in plain)
           for i in range(len(jobs))]
    wall = sum(latencies)
    tail_s, tail_pct = tail(latencies)
    setup_scaled = [speed.timed(t0, t1)[1] for t0, t1, _ in setups]
    e2e = {
        "wall_s": (wall, "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    summary = dict(e2e, job_tail_pct=(tail_pct, "%"), jobs=(len(jobs), "count"),
                   fail_frac=(failed / attempted, "ratio"),
                   wall_unscaled_s=(sum(raw), "s"),
                   setup_unscaled_s=(statistics.median(t1 - t0 for t0, t1, _ in setups), "s"),
                   kernel_s=(speed.median_s(), "s"))
    trials = sum(trials_of(j) for j in jobs)
    if trials:
        summary["trials_per_s"] = (trials / wall, "1/s")
    if rec is not None:
        metrics = tracing.layer_metrics(rec, len(traced))
        overhead = statistics.median(map(pass_seconds, traced)) / statistics.median(
            map(pass_seconds, plain)) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        rec.write(os.path.join(work, "spans.json"))
    else:
        metrics = e2e

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit(),
           "setups": len(setups), "passes": len(plain), "traced_passes": len(traced),
           "planned_passes": passes,
           "references": "recorded" if refs is not None else "none for this seed"}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": as_json(metrics)}
    with open(os.path.join(work, "result.json"), "w") as f:
        samples = {job["id"]: [[r[i]["seconds"], r[i]["scaled"]] for r in plain]
                   for i, job in enumerate(jobs)}
        json.dump(dict(result, env=env, summary=as_json(summary), failures=failures,
                       samples=samples),
                  f, indent=1, sort_keys=True)
    print("env " + json.dumps(env, sort_keys=True))
    print("summary " + json.dumps(as_json(summary), sort_keys=True))
    for job_id, why in sorted(failures.items()):
        print(f"FAILED {job_id}: {why}")
    print(json.dumps(result))
    return 0


def pass_seconds(results: list[dict]) -> float:
    return sum(r["seconds"] for r in results)


def as_json(metrics: dict) -> dict:
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        sys.exit(2)
