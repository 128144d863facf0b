#!/usr/bin/env python3
"""Repeats benchmark runs and summarises them against BENCHMARK.json.

    python3 blas_bench/run_bench.py [--workloads a,b] [--seeds 1,2,3]
                                    [--seconds S] [--compare A B]

Runs every workload once per seed and prints, per end-to-end metric of
the program, the median and quartiles, the spread (interquartile range
over the median) and the metric's bound: BENCHMARK.json's for the gated
metrics, 10% for the timings it does not gate. A metric whose spread
exceeds its bound is reported "unresolved": its runs cannot tell a change
of that size from noise.

--compare A B takes two blas_bench binaries (for example built from two
commits), runs both on every seed, alternating which goes first, and
reports each side's median and quartiles plus the verdict per metric:
"regression" when B's median is worse than A's by more than the bound,
"unresolved" when either side's spread exceeds the bound, else "ok". The
exact counters of the post-window pass (exec.d_joins, storage.elements,
...) must be identical for every run of the same seed.

Without --compare the binary is built from this checkout. Exits 1 on a
wrong answer, an exact-counter mismatch or a regression of a gated metric.
"""

import argparse
import statistics
import sys

import run

# The program's timings are not in BENCHMARK.json's end_to_end (host drift
# keeps them from resolving there); they are held to the 10% cap that
# every gated bound stays within, so the table says whether a set of runs
# resolves them, and a regression in them is reported but does not fail.
UNGATED_BOUND = 0.10
EXACT = ("exec.d_joins", "exec.intermediate_rows", "blas.output_rows",
         "storage.elements", "storage.page_fetches", "storage.page_misses",
         "storage.io_reads")


def summarize(values):
    """(median, q1, q3, spread); spread = (q3 - q1) / median."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=float,
                        default=run.load_spec()["run_seconds"])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    spec = run.load_spec()
    gated = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"].removeprefix("service."): m["better"]
              for m in spec["per_layer"]}
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workloads == "all" else args.workloads.split(","))
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = args.compare or [run.build()]
    labels = ["A", "B"] if args.compare else ["-"]

    failed = False
    for workload in workloads:
        runs = {label: [] for label in labels}
        exact = {}
        mismatch = False
        for i, seed in enumerate(seeds):
            order = list(zip(labels, sides))
            if i % 2:
                order.reverse()
            for label, binary in order:
                report = run.run_binary(binary, workload, seed, args.seconds)
                if not report["checks"]["ok"]:
                    print(f"{workload} seed {seed} side {label}: "
                          f"wrong answers", file=sys.stderr)
                    failed = True
                runs[label].append(report)
                counters = {k: report["layers"][k]["value"] for k in EXACT}
                if exact.setdefault(seed, counters) != counters:
                    print(f"{workload} seed {seed}: exact counters differ: "
                          f"{exact[seed]} vs {counters}", file=sys.stderr)
                    mismatch = failed = True

        print(f"== {workload}  ({len(seeds)} seeds x {len(labels)} sides, "
              f"{args.seconds:g} s each)")
        for name in runs[labels[0]][0]["metrics"]:
            if name == "error_ratio" or any(  # error_ratio: see checks
                    name not in r["metrics"] for side in runs.values()
                    for r in side):
                continue
            m = gated.get(name) or {"bound": UNGATED_BOUND,
                                    "better": better.get(name, "lower")}
            bound = m["bound"]
            cells, worst_spread, med = [], 0.0, {}
            for label in labels:
                values = [r["metrics"][name]["value"] for r in runs[label]]
                med[label], q1, q3, spread = summarize(values)
                worst_spread = max(worst_spread, spread)
                cells.append(f"{label}: {med[label]:.4g} "
                             f"[{q1:.4g}, {q3:.4g}] spread {spread:.1%}")
            verdict = "ok"
            if worst_spread > bound:
                verdict = "unresolved"
            elif args.compare:
                delta = (med["B"] - med["A"]) / med["A"]
                worse = delta if m["better"] == "lower" else -delta
                cells.append(f"delta {delta:+.1%}")
                if worse > bound:
                    verdict = "regression"
                    if name in gated:
                        failed = True
            if name not in gated:
                verdict += " (not gated)"
            print(f"  {name:<26} {' | '.join(cells)}  bound {bound:.0%}  "
                  f"{verdict}")
        print(f"  exact counters identical per seed: "
              f"{'no' if mismatch else 'yes'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
