#!/usr/bin/env python3
"""Two interleaved sets of runs of the same code, judged by the benchmark's own bounds.

    python3 benchmarks/perf/agreement.py [--seeds 1-10] [--out benchmarks/perf/agreement]

For every seed and workload it runs the benchmark twice, A then B, so the
two sets see the same inputs and the same stretch of host weather
(A B A B ...).  Every result document is kept under ``<out>/A`` and
``<out>/B``; ``<out>/summary.json`` and the table on stdout give, per
workload and end-to-end metric, each set's median and ``(q3-q1)/median``
over its runs and how much worse B's median is than A's.  The sets agree
when every spread (``setup_s`` excepted) and every "B worse by" is within
the metric's bound, no op failed, and ``index_bytes_per_posting`` and the
output digests are identical between A and B for every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-2])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=os.path.join(PERF_DIR, "agreement"))
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]

    docs: dict[tuple[str, str, int], dict] = {}
    for seed in range(first, last + 1):
        for workload in workloads:
            for side in "AB":
                doc = run_once(workload, seed, bench["run_seconds"])
                docs[side, workload, seed] = doc
                os.makedirs(os.path.join(args.out, side), exist_ok=True)
                path = os.path.join(args.out, side, f"{workload}.seed{seed}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, separators=(",", ":"))
                print(f"{side} {workload} seed {seed}: {doc['protocol']['reps']} reps, "
                      f"failed {doc['ops_failed']}", file=sys.stderr, flush=True)

    summary: dict = {"seeds": args.seeds, "workloads": {}}
    agree = True
    print("| workload | metric | A median | A spread | B median | B spread | B worse by | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        seeds = range(first, last + 1)
        sides = {s: [docs[s, workload, seed] for seed in seeds] for s in "AB"}
        both = sides["A"] + sides["B"]
        identical = all(
            a["inputs"]["output_digest"] == b["inputs"]["output_digest"]
            and a["end_to_end"]["index_bytes_per_posting"]["value"]
            == b["end_to_end"]["index_bytes_per_posting"]["value"]
            for a, b in zip(sides["A"], sides["B"]))
        entry = {
            "ops_attempted": sum(d["ops_attempted"] for d in both),
            "ops_failed": sum(d["ops_failed"] for d in both),
            "all_correct": all(d["correct"] for d in both),
            "digests_and_bytes_per_posting_identical": identical,
            "metrics": {},
        }
        agree &= identical and entry["all_correct"] and entry["ops_failed"] == 0
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            values = {s: [d["end_to_end"][name]["value"] for d in sides[s]] for s in "AB"}
            med = {s: statistics.median(values[s]) for s in "AB"}
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (med["B"] - med["A"]) / med["A"]
            spreads = {s: spread(values[s]) for s in "AB"}
            ok = worse <= bound and (name == "setup_s" or max(spreads.values()) <= bound)
            agree &= ok
            entry["metrics"][name] = {
                "bound": bound, "a_median": med["A"], "a_spread": spreads["A"],
                "b_median": med["B"], "b_spread": spreads["B"], "b_worse_by": worse,
                "within_bound": ok,
            }
            print(f"| `{workload}` | `{name}` | {med['A']:.5g} | {spreads['A']:.3f} | "
                  f"{med['B']:.5g} | {spreads['B']:.3f} | {worse:+.3f} | {bound} |"
                  + ("" if ok else " **OUT**"))
        summary["workloads"][workload] = entry
    summary["agree"] = agree
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print("agree" if agree else "DO NOT AGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
