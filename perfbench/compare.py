#!/usr/bin/env python3
"""Summarize or compare perfbench result records.

    python3 perfbench/compare.py RESULTS_DIR            # baseline table
    python3 perfbench/compare.py BASE_DIR NEW_DIR       # A/B comparison

RESULTS_DIR holds the records run.py writes (.bench_build/results/).
Only end-to-end runs (--trace 0) are summarized. Records whose host
fingerprint differs (CPU model, nproc, compiler, build type, threads)
are never pooled or compared: the tool refuses and exits 2, since a
number from another host is not a baseline.

A/B verdicts per metric: "unresolved" when either side's quartile
spread, (q3 - q1) / median, is wider than the metric's bound (the sets
cannot tell a change of that size from noise); otherwise "REGRESSION"
when the median got worse by more than the bound, else "ok".
"""

import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type", "threads")


def load(path):
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "*.json")))
    records = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            records.append(r)
    if not records:
        sys.exit("compare: no end-to-end records under %s" % path)
    return records


def host(records, label):
    hosts = {tuple(r["fingerprint"].get(k) for k in HOST_KEYS)
             for r in records}
    if len(hosts) != 1:
        print("compare: refusing: %s mixes %d host fingerprints" % (
            label, len(hosts)), file=sys.stderr)
        sys.exit(2)
    return hosts.pop()


def summarize(records):
    """{workload: {metric: [values]}} plus the failure counts."""
    out = {}
    for r in records:
        m = out.setdefault(r["workload"], {})
        for name, v in r["result"]["metrics"].items():
            m.setdefault(name, []).append(v["value"])
        m.setdefault("failed", []).append(r["result"]["failed"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile spread as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def main():
    args = sys.argv[1:]
    if len(args) not in (1, 2):
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base = load(args[0])
    base_host = host(base, args[0])
    print("host: " + ", ".join("%s=%s" % kv
                               for kv in zip(HOST_KEYS, base_host)))
    if len(args) == 1:
        for wl, metrics in sorted(summarize(base).items()):
            for name, vals in metrics.items():
                if name == "failed":
                    continue
                q1, q2, q3 = quartiles(vals)
                print("%-18s %-12s median %.6g  q1 %.6g  q3 %.6g  "
                      "spread %.1f%%  n=%d" % (wl, name, q2, q1, q3,
                                               100 * spread(vals),
                                               len(vals)))
        return 0
    new = load(args[1])
    if host(new, args[1]) != base_host:
        print("compare: refusing: %s and %s come from different hosts" % (
            args[0], args[1]), file=sys.stderr)
        return 2
    a, b = summarize(base), summarize(new)
    worst = 0
    for wl in sorted(set(a) & set(b)):
        for name in sorted(set(a[wl]) & set(b[wl]) & set(spec)):
            _, ma, _ = quartiles(a[wl][name])
            _, mb, _ = quartiles(b[wl][name])
            change = (mb - ma) / ma
            worse = change if spec[name]["better"] == "lower" else -change
            bound = spec[name]["bound"]
            noise = max(spread(a[wl][name]), spread(b[wl][name]))
            verdict = "ok"
            if noise > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                worst = 1
            print("%-18s %-12s base %.6g  new %.6g  change %+.1f%%  "
                  "spread %.1f%%  bound %.0f%%  %s" % (
                      wl, name, ma, mb, 100 * change, 100 * noise,
                      100 * bound, verdict))
        if sum(b[wl]["failed"]) > sum(a[wl]["failed"]):
            print("%-18s more failed cells than the base" % wl)
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
