#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize it into a results file.

    python3 perfbench/record.py perfbench/results/BENCH_x.json

Runs ``run.py`` on every workload in BENCHMARK.json for ``run_seconds``,
once per seed 1-10 (untraced) and once per seed 1-3 (traced), one process
at a time.  For each end-to-end metric it writes the ten values, their
median and quartiles, and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  From the traced runs it writes the per-layer medians and the stage split of
the traced ``expand`` time (roots, partition, visualize, C/R shares), with
the checks that each workload loads the layer it was chosen for.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 4)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} checks failed")
    return result


def _summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


# What each workload was chosen to load, as a test on its stage split.
RATIONALE = {
    "dense": ("visualize + C/R >= 50% of expand_s",
              lambda split, e2e: split["visualize_share"] + split["cr_share"] >= 0.5),
    "sparse-wide": ("roots >= 80% of expand_s", lambda split, e2e: split["roots_share"] >= 0.8),
    "blocks": ("roots >= 80% of expand_s", lambda split, e2e: split["roots_share"] >= 0.8),
    "verify": ("verify_s + eigen_s > 5 x expand_s",
               lambda split, e2e: e2e["verify_s"] + e2e["eigen_s"] > 5 * e2e["expand_s"]),
}


def _stage_split(workload, e2e, layers):
    medians = {name: s["median"] for name, s in {**e2e, **layers}.items()}
    expand = medians["trace.expand_s"]
    split = {
        "roots_share": medians["charpoly.roots.s"] / expand,
        "partition_share": medians["partition.s"] / expand,
        "visualize_share": medians["visualize.s"] / expand,
        "cr_share": medians["csr.cr.s"] / expand,
        "assignments": medians["assignment.calls"],
        "roots": medians["charpoly.roots.count"],
        "groups": medians["partition.groups"],
        "expand_coverage": medians["trace.expand_coverage"],
    }
    claim, holds = RATIONALE[workload]
    split["rationale"] = claim
    split["rationale_holds"] = holds(split, medians)
    split["coverage_at_least_95pct"] = split["expand_coverage"] >= 0.95
    return split


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit(f"usage: {sys.argv[0]} OUT.json")
    out = Path(args[0])
    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"seconds": seconds, "seeds": list(SEEDS), "trace_seeds": list(TRACE_SEEDS), "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        e2e = {name: _summary([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        entry = {"end_to_end": e2e, "checks": sum(r["attempted"] for r in runs)}
        for name, s in e2e.items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:<12} {name:<18} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        traced = [_run(workload, seed, seconds, 1) for seed in TRACE_SEEDS]
        layers = {name: _summary([r["metrics"][name]["value"] for r in traced]) for name in traced[0]["metrics"]}
        entry["per_layer"] = layers
        entry["stage_split"] = _stage_split(workload, e2e, layers)
        print(f"{workload:<12} stage split {json.dumps(entry['stage_split'])}", flush=True)
        report["workloads"][workload] = entry
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
