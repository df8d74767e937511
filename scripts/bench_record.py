#!/usr/bin/env python3
"""Run perfbench on one or more source trees and record the numbers in one JSON file.

Usage, from anywhere:

    python3 scripts/bench_record.py --out BENCH_10.json \\
        --tree parent=../parent --tree change=. \\
        --workload variety-dims --workload grid-io --seed 1 --seed 2 --seconds 20

Each ``--tree LABEL=DIR`` names the root of a memsig checkout.  The trees
run ``DIR/perfbench/run.py`` unchanged, with the tree as working directory, so
each tree is measured by its own benchmark code.  For every workload and
seed, every tree runs once with ``--trace 0``; the tree order rotates from one
seed to the next, so with two trees the pairs alternate which side runs
first.  Then every tree runs once per workload with ``--trace 1`` (first
seed) for the per-layer self times.  ``--smoke`` passes ``--smoke`` to
``run.py``: tiny inputs, for the tests.

The output holds:

- ``environment``: the recording host and, per tree, the commit and the
  environment ``run.py`` reported (python, numpy, scalar backend, CPU);
- ``end_to_end[tree][workload][metric]``: the median and quartiles
  (``statistics.quantiles``, exclusive method) over the seeds, and every run;
- ``failed[tree][workload]``: jobs failed and attempted, summed over the runs;
- ``per_layer[tree][workload]``: the traced run's per-layer metrics, and
  the targets the trace reported absent;
- ``comparison`` when there are two or more trees: per workload and
  metric, the last tree against the first, pair by pair (same seed).  Wins
  count in the metric's ``better`` direction from ``BENCHMARK.json``, ties
  for neither side; ``gain_rule_met`` is true when the last tree wins at
  least nine tenths of the pairs and its median is better than the first
  tree's by more than the first tree's interquartile range.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def _run_bench(root, workload, seed, seconds, trace, smoke):
    """One run of the tree's ``perfbench/run.py``; its last JSON line and its results.json."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv + (["--smoke"] if smoke else []), cwd=root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    work = os.path.join(root, ".perfbench_work", f"{workload}-s{seed}-t{trace}", "results.json")
    with open(work, encoding="utf-8") as fh:
        details = json.load(fh)
    return result, details


def _log(line):
    print(line, file=sys.stderr, flush=True)


def _commit(root):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=root, capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("+uncommitted" if dirty else "")


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def _parse_trees(specs):
    trees = {}
    for spec in specs:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            raise SystemExit(f"--tree takes LABEL=DIR, got {spec!r}")
        if label in trees:
            raise SystemExit(f"tree label {label!r} given twice")
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            raise SystemExit(f"{path}: no perfbench/run.py; give the root of a memsig checkout")
        trees[label] = os.path.abspath(path)
    return trees


def record(trees, workloads, seeds, seconds, smoke):
    """Run every tree on every workload and seed; return the document to write."""
    labels = list(trees)
    with open(os.path.join(trees[labels[-1]], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {label: {w: [] for w in workloads} for label in labels}
    envs = {}
    for w in workloads:
        for i, seed in enumerate(seeds):
            for label in labels[i % len(labels):] + labels[: i % len(labels)]:
                t0 = time.perf_counter()
                result, details = _run_bench(trees[label], w, seed, seconds, 0, smoke)
                envs.setdefault(label, details["env"])
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                runs[label][w].append({"seed": seed, "attempted": result["attempted"],
                                       "failed": result["failed"], "metrics": metrics})
                _log(f"{label} {w} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                     + ", ".join(f"{k} {v:.4g}" for k, v in metrics.items()))
    per_layer = {label: {} for label in labels}
    for w in workloads:
        for label in labels:
            result, details = _run_bench(trees[label], w, seeds[0], seconds, 1, smoke)
            per_layer[label][w] = {
                "seed": seeds[0],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                "absent": details["absent"],
            }
            _log(f"{label} {w} traced: absent {details['absent'] or 'none'}")
    doc = {
        "settings": {"workloads": workloads, "seeds": seeds, "seconds": seconds, "smoke": smoke,
                     "trees": labels},
        "environment": {
            "host": {"python": platform.python_version(), "platform": platform.platform(),
                     "nproc": os.cpu_count()},
            "trees": {label: {"commit": _commit(trees[label]), "run_env": envs.get(label)}
                      for label in labels},
        },
        "end_to_end": {
            label: {w: {m["name"]: {"unit": m["unit"],
                                    **_summary([r["metrics"][m["name"]] for r in runs[label][w]])}
                        for m in spec["end_to_end"]}
                    for w in workloads}
            for label in labels
        },
        "failed": {
            label: {w: {"failed": sum(r["failed"] for r in runs[label][w]),
                        "attempted": sum(r["attempted"] for r in runs[label][w])}
                    for w in workloads}
            for label in labels
        },
        "per_layer": per_layer,
    }
    if len(labels) > 1:
        base, new = labels[0], labels[-1]
        doc["comparison"] = {"base": base, "new": new, "workloads": {}}
        for w in workloads:
            rows = {}
            for name, direction in better.items():
                pairs = [(a["metrics"][name], b["metrics"][name])
                         for a, b in zip(runs[base][w], runs[new][w])]
                sign = 1 if direction == "higher" else -1
                base_q = _summary([a for a, _ in pairs])
                new_median = statistics.median(b for _, b in pairs)
                gain = sign * (new_median - base_q["median"])
                wins = sum(sign * (b - a) > 0 for a, b in pairs)
                rows[name] = {
                    "better": direction,
                    "pairs": len(pairs),
                    "new_wins": wins,
                    "base_wins": sum(sign * (a - b) > 0 for a, b in pairs),
                    "median_ratio": new_median / base_q["median"] if base_q["median"] else None,
                    "gain": gain,
                    "base_iqr": base_q["q3"] - base_q["q1"],
                    "gain_rule_met": wins >= 0.9 * len(pairs) and gain > base_q["q3"] - base_q["q1"],
                }
            doc["comparison"]["workloads"][w] = rows
    return doc


def main(argv=None):
    ap = argparse.ArgumentParser(description="Record perfbench results of source trees as JSON.")
    ap.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_10.json")
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                    help="a checkout root to measure; repeat for more trees, the first is the base")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", action="append", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (run.py --smoke), for the tests")
    args = ap.parse_args(argv)
    trees = _parse_trees(args.tree)
    doc = record(trees, args.workload, args.seed, args.seconds, args.smoke)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
