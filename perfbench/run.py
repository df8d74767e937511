#!/usr/bin/env python3
"""memsig benchmark: CLI jobs in a closed loop, checked, with per-layer traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sig-l2-int --seed 1 --seconds 20 --trace 0

Workloads, metrics and units are declared in ``BENCHMARK.json``; the layer ->
metric -> workload map is in ``perfbench/README.md``.

One run:

1. makes the workload's inputs from ``--seed`` (``workloads.py``);
2. starts the job server (``server.py``) ``SETUP_REPS`` times after one
   warm-up and takes the median time to "imported" as ``setup_s``;
3. runs rounds of jobs, every kind once per round, one job at a time, until
   ``--seconds`` have passed and the round in flight is complete.  With
   ``--trace 1`` every job runs twice, untraced and then traced;
4. checks every output against an independent route and prints one
   human-readable line per metric, then the result as one JSON line.

Everything it writes stays under ``.perfbench_work/`` in the current
directory; the inputs and outputs are deleted at the end and a
``results.json`` with the environment and the full job list is kept.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPS = 9
JOB_LIMIT_S = 45  # a job still running after this is killed and counted as failed
# job_tail_s is this fixed percentile, so that two commits compare the same
# statistic; it is the highest of p75/p90/p99 with at least 10 jobs beyond it
# on every workload at the commit that defined the benchmark
TAIL_PCT = 75
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORK_DIR = ".perfbench_work"


class Server:
    """One job server process; its start-up time is one set-up sample."""

    def __init__(self, root, log_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env.pop("MEMSIG_SEED", None)
        for var in THREAD_VARS:
            env[var] = "1"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), log_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=root,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line:
            self.close()
            raise RuntimeError(f"the job server did not start; see {log_path}")
        self.env = json.loads(line)["env"]

    def run(self, argv, env, trace_path):
        req = {"argv": argv, "env": env, "trace": trace_path, "limit_s": JOB_LIMIT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job server exited during a job")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=JOB_LIMIT_S + 5)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_servers(root, log_path, reps):
    """Warm up once (bytecode caches), then time ``reps`` starts; keep the last."""
    Server(root, log_path).close()
    samples = []
    server = None
    for _ in range(reps):
        if server is not None:
            server.close()
        server = Server(root, log_path)
        samples.append(server.setup_s)
    return server, samples


def closed_loop(server, kinds, pool, seconds, trace, work):
    """Rounds of every kind once, one job at a time, until ``seconds`` pass."""
    jobs = []
    start = time.perf_counter()
    hard_stop = seconds + JOB_LIMIT_S
    rnd = 0
    while time.perf_counter() - start < seconds:
        p = rnd % workloads.POOL
        for k, kind in enumerate(kinds):
            if time.perf_counter() - start > hard_stop:
                break
            in_path, data = pool[k][p]
            env = {"MEMSIG_SEED": data["seed"]} if "seed" in data else {}
            for traced in (False, True) if trace else (False,):
                i = len(jobs)
                out_path = os.path.join(work, "outputs", f"job{i}.json")
                trace_path = os.path.join(work, "traces", f"job{i}.json") if traced else None
                argv = kind.argv(in_path, out_path, data)
                result = server.run(argv, env, trace_path)
                jobs.append(
                    {"kind": k, "pool": p, "label": kind.label, "argv": argv, "env": env,
                     "traced": traced, "out": out_path, "trace": trace_path, **result}
                )
        rnd += 1
    return jobs, time.perf_counter() - start


def check_outputs(jobs, kinds, pool, root):
    """Mark each job ok or not; a reference is computed once per distinct input."""
    sys.path.insert(0, os.path.join(root, "src"))
    passed = defaultdict(set)  # (kind, pool) -> sha256 of outputs that passed
    for job in jobs:
        job["ok"], job["error"] = False, None
        if job["rc"] != 0:
            job["error"] = f"exit code {job['rc']}"
            continue
        try:
            with open(job["out"], "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            job["error"] = f"no output: {exc}"
            continue
        key = (job["kind"], job["pool"])
        digest = hashlib.sha256(raw).hexdigest()
        if digest not in passed[key]:
            try:
                error = kinds[job["kind"]].check(json.loads(raw), pool[job["kind"]][job["pool"]][1])
            except (ValueError, TypeError, KeyError, AttributeError, ZeroDivisionError) as exc:
                error = f"unreadable output: {exc!r}"
            if error:
                job["error"] = error
                continue
            passed[key].add(digest)
        job["ok"] = True


def tail(values):
    """Nearest-rank TAIL_PCT percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-TAIL_PCT * len(ordered) // 100))  # ceil
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(jobs, loop_s, setup_samples):
    ok = [j for j in jobs if j["ok"]]
    walls = [j["wall_s"] for j in (ok or jobs)]
    tail_s, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "jobs_per_s": len(ok) / loop_s,
        "peak_rss_mb": max(j["maxrss_kb"] for j in jobs) / 1024,
        "error_rate": (len(jobs) - len(ok)) / len(jobs),
    }
    notes = {
        "job_tail_s": f"p{TAIL_PCT}, {beyond} of {len(walls)} jobs beyond it"
        + ("" if beyond >= 10 else "; fewer than 10, the tail is under-sampled"),
        "error_rate": f"{len(jobs) - len(ok)} of {len(jobs)} jobs failed or gave a wrong output",
        "setup_s": f"median of {len(setup_samples)} starts",
    }
    return metrics, notes


def per_layer(traced, untraced, pool):
    """Per-job mean self times and counts from the traced jobs' spans."""
    totals = defaultdict(float)
    absent = set()
    fast_s = defaultdict(list)  # (kind, pool) -> sig_tensor_fast span seconds
    for job in traced:
        with open(job["trace"], encoding="utf-8") as fh:
            doc = json.load(fh)
        absent.update(doc["absent"])
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        root_ns = fast_ns = 0
        for i, (name, t0, t1, parent, counts) in enumerate(spans):
            self_s = (t1 - t0 - child_ns[i]) / 1e9
            totals[f"{name}.self_s"] += self_s
            counts = dict(counts or {})
            depth = counts.pop("depth", None)
            if depth is not None:
                totals[f"{name}.depth{depth}.self_s"] += self_s
            for key, value in counts.items():
                totals[key] += value
            if parent is None:
                root_ns += t1 - t0
            if name == "fastsig.sig_tensor_fast":
                fast_ns += t1 - t0
        totals["cli.self_s"] += max(0.0, job["wall_s"] - root_ns / 1e9)
        if fast_ns:
            fast_s[(job["kind"], job["pool"])].append(fast_ns / 1e9)
    n = max(len(traced), 1)
    metrics = {name: value / n for name, value in totals.items()}
    advances = totals.get("fastsig.cell_advances", 0)
    if advances:
        metrics["fastsig.ns_per_cell_advance"] = totals["fastsig.advance_letter.self_s"] * 1e9 / advances
    congruence = {
        (k, p): entry[1]["congruence_s"]
        for k, entries in enumerate(pool)
        for p, entry in enumerate(entries)
        if "congruence_s" in entry[1]
    }
    if congruence:
        metrics["bench.congruence_matrix_quadratic.self_s"] = statistics.mean(congruence.values())
        both = [key for key in congruence if key in fast_s]
        if both:
            fast = sum(statistics.mean(fast_s[key]) for key in both)
            metrics["bench.fast_over_congruence"] = fast / sum(congruence[key] for key in both)
    if traced and untraced:
        metrics["trace.overhead_ratio"] = statistics.median(
            j["wall_s"] for j in traced
        ) / statistics.median(j["wall_s"] for j in untraced)
    return metrics, sorted(absent)


def probe_ms(reps=15):
    """Median time of a fixed pure-Python loop on the jobs' CPU.

    Taken before and after the timed loop, it records the host's speed
    around a run.  On the shared 2-vCPU VM the benchmark was tuned on, the
    same code ran up to 1.9x slower for minutes at a time.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            acc = 0
            for i in range(50_000):
                acc += i * i % 7
            samples.append((time.perf_counter() - t0) * 1e3)
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(samples)


def environment(server_env):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {**server_env, "nproc": os.cpu_count(), "cpu": cpu or "unknown"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="memsig benchmark (see BENCHMARK.json)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs and few set-up samples, for the tests")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "memsig", "cli.py")) or not os.path.isfile(spec_path):
        print("error: run from the root of a memsig checkout (src/memsig and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    work = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("inputs", "outputs", "traces"):
        os.makedirs(os.path.join(work, sub))
    server = None
    try:
        kinds, pool = workloads.make_pool(args.workload, args.seed, args.smoke, os.path.join(work, "inputs"))
        log_path = os.path.join(work, "jobs.log")
        server, setup_samples = start_servers(root, log_path, 3 if args.smoke else SETUP_REPS)
        probe_before = probe_ms()
        jobs, loop_s = closed_loop(server, kinds, pool, args.seconds, args.trace, work)
        probe = f"{probe_before:.3f} ms before, {probe_ms():.3f} ms after the loop"
        server.close()
        env = {**environment(server.env), "speed probe": probe}
        server = None
        check_outputs(jobs, kinds, pool, root)
        untraced = [j for j in jobs if not j["traced"]]
        traced = [j for j in jobs if j["traced"] and os.path.exists(j["trace"])]
        e2e, notes = end_to_end(untraced, loop_s, setup_samples)
        layers, absent = per_layer(traced, untraced, pool) if args.trace else ({}, [])
    finally:
        if server is not None:
            server.close()
        for sub in ("inputs", "outputs", "traces"):
            shutil.rmtree(os.path.join(work, sub), ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    failed = sum(not j["ok"] for j in jobs)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} jobs in {loop_s:.2f} s, {failed} failed")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for job in jobs:
        if not job["ok"]:
            print(f"FAILED {job['label']} (pool {job['pool']}): {job['error']}")
    if not args.trace:
        print(f"error_rate = {e2e['error_rate']!r} ratio ({notes['error_rate']})")
    for metric in declared:
        name = metric["name"]
        note = f" ({notes[name]})" if not args.trace and name in notes else ""
        print(f"{name} = {values.get(name, 0.0)!r} {metric['unit']}{note}")
    if absent:
        print("absent from the program: " + ", ".join(absent))
    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "env": env, "setup_samples_s": setup_samples, "loop_s": loop_s,
        "end_to_end": e2e, "notes": notes, "per_layer": layers, "absent": absent,
        "jobs": [{key: job[key] for key in ("label", "pool", "argv", "env", "traced", "rc",
                                             "wall_s", "maxrss_kb", "ok", "error")} for job in jobs],
    }
    with open(os.path.join(work, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"results: {os.path.join(work, 'results.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
