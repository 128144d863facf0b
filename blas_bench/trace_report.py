#!/usr/bin/env python3
"""Turns a blas_bench --trace file into per-layer self times.

Each line of the trace file is one request: the benchmark's own spans
(request, submit, wait) with the program's span tree (query, then
plan_cache, parse, translate, optimize, execute, open_doc, stream, merge,
page_io, ...) nested under it. A span is [name, note, level, start_ns,
dur_ns] with times relative to the request's start.

Self time: every instant of a request belongs to the deepest span covering
it (ties go to the span that started last), so a span's self time is its
duration minus the part its children cover, and the self times of one
request add up to the request span. Scatter workers run open_doc spans in
parallel with the merge; the tie rule hands each overlapping instant to
one of them. Span time falling outside the request is clipped, and the
check fails when more than 5% of the traced time had to be clipped.

    python3 blas_bench/trace_report.py TRACE.jsonl

prints, per workload, the self-time share of every layer, the per-layer
metrics and the check; exits 1 when the check fails.
"""

import argparse
import json
import math
import sys
from collections import defaultdict

# Span name -> layer (module under src/). `execute` is split by engine note.
LAYER = {
    "request": "service", "submit": "service",
    "wait": "service", "query": "service", "plan_cache": "service",
    "parse": "xpath", "translate": "translate", "optimize": "exec",
    "execute": "exec", "open_doc": "exec", "open_scatter": "blas",
    "stream": "blas", "merge": "blas", "drain": "blas",
    "page_io": "storage", "replace": "ingest",
}
DELIVER = ("stream", "merge", "drain", "open_scatter")
CLIP_LIMIT = 0.05


def layer_of(name, note):
    if name == "execute" and note == "TwigJoin":
        return "twig"
    return LAYER.get(name, "other")


def self_times(spans):
    """Returns ({span index: self ns}, request ns, clipped ns)."""
    req_end = spans[0][4]
    clipped = 0
    cut = []
    for name, _note, _level, start, dur in spans:
        lo, hi = max(start, 0), min(start + dur, req_end)
        if name != "page_io":  # an aggregate of reads, not one interval
            clipped += dur - max(hi - lo, 0)
        cut.append((lo, hi))
    bounds = sorted({b for lo, hi in cut for b in (lo, hi)})
    owned = defaultdict(int)
    for a, b in zip(bounds, bounds[1:]):
        best = None
        for i, (lo, hi) in enumerate(cut):
            if lo <= a and hi >= b:
                rank = (spans[i][2], spans[i][3])
                if best is None or rank >= best[0]:
                    best = (rank, i)
        if best is not None:
            owned[best[1]] += b - a
    return owned, req_end, clipped


def quantile(values, q):
    """Nearest-rank quantile; 0 when empty."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(q * len(v)))) - 1]


def analyze(path):
    """Per workload: {"layers": {layer: share}, "metrics": {name: (value,
    unit, samples)}, "clip_fraction": float, "ok": bool}."""
    acc = defaultdict(lambda: {
        "layer_ns": defaultdict(int), "total_ns": 0, "clipped_ns": 0,
        "per": defaultdict(list), "requests": 0})
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            a = acc[rec["workload"]]
            spans = rec["spans"]
            if rec["kind"] == "write":
                a["per"]["replace"].append(spans[0][4])
                continue
            owned, req_ns, clipped = self_times(spans)
            a["total_ns"] += req_ns
            a["clipped_ns"] += clipped
            a["requests"] += 1
            sums = defaultdict(int)  # self ns by span name
            query_ns = 0
            for i, ns in owned.items():
                name, note = spans[i][0], spans[i][1]
                layer = layer_of(name, note)
                a["layer_ns"][layer] += ns
                sums[name] += ns
                if name == "execute":
                    sums[layer + ".execute"] += ns
            for name, _note, _level, start, dur in spans:
                if name == "query":
                    query_ns = min(start + dur, req_ns) - max(start, 0)
            per = a["per"]
            per["queue_wait"].append(req_ns - query_ns)
            if "plan_cache" in sums:
                per["plan_cache"].append(sums["plan_cache"])
            per["open"].append(sums["execute"] + sums["open_doc"])
            if "exec.execute" in sums:
                per["relational"].append(sums["exec.execute"])
            if "twig.execute" in sums:
                per["twig"].append(sums["twig.execute"])
            per["deliver"].append(sum(sums[n] for n in DELIVER))
            if "page_io" in sums:
                per["page_io"].append(sums["page_io"])

    out = {}
    for workload, a in acc.items():
        per = a["per"]

        def metric(key, q, scale, unit):
            return (quantile(per[key], q) / scale, unit, len(per[key]))

        metrics = {
            "service.queue_wait_p50_ms": metric("queue_wait", 0.5, 1e6, "ms"),
            "service.queue_wait_p99_ms": metric("queue_wait", 0.99, 1e6, "ms"),
            "service.plan_cache_us_p50": metric("plan_cache", 0.5, 1e3, "us"),
            "exec.open_self_ms_p50": metric("open", 0.5, 1e6, "ms"),
            "exec.relational_execute_self_ms_p50":
                metric("relational", 0.5, 1e6, "ms"),
            "twig.execute_self_ms_p50": metric("twig", 0.5, 1e6, "ms"),
            "blas.deliver_self_ms_p50": metric("deliver", 0.5, 1e6, "ms"),
            "storage.page_io_ms_p50": metric("page_io", 0.5, 1e6, "ms"),
            "ingest.replace_ms_p50": metric("replace", 0.5, 1e6, "ms"),
        }
        total = a["total_ns"] or 1
        clip = a["clipped_ns"] / total
        out[workload] = {
            "layers": {k: v / total for k, v in a["layer_ns"].items()},
            "metrics": metrics,
            "requests": a["requests"],
            "clip_fraction": clip,
            "ok": clip <= CLIP_LIMIT and a["requests"] > 0,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace", help="JSON-lines file from blas_bench --trace")
    args = parser.parse_args()
    result = analyze(args.trace)
    ok = bool(result)
    for workload, r in result.items():
        print(f"== {workload}  ({r['requests']} traced requests)")
        print("  layer self-time share of request time")
        for layer, share in sorted(r["layers"].items(), key=lambda x: -x[1]):
            print(f"    {layer:<12} {100 * share:7.2f}%")
        print("  per-layer metrics")
        for name, (value, unit, n) in r["metrics"].items():
            print(f"    {name:<38} {value:12.6g} {unit:<3} n={n}")
        verdict = "ok" if r["ok"] else "FAILED"
        print(f"  check: self times sum to the request span; "
              f"{100 * r['clip_fraction']:.3f}% of span time fell outside "
              f"it (limit {100 * CLIP_LIMIT:.0f}%): {verdict}")
        ok = ok and r["ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
