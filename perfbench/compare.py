#!/usr/bin/env python3
"""Per-layer delta report between two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by `perfbench/run.py --out FILE`, any
number per workload and mode (run the same seeds on both sides). For every
workload and metric present on both sides the report prints both medians,
the change (relative; absolute for ratios), and a verdict: `better`/`worse`
when the change exceeds both THRESHOLD and the base side's own spread
(quartile distance over median, or range over median with fewer than four
records), else `~`. Metrics that are 0 on both sides (layers the workload
does not exercise) are left out.
Timed layers are also shown as a share of the traced circuit or request time
(`trace.circuit_s`), which is where a saving should appear. The report is a
breakdown for a change's description; it does not replace the end-to-end
comparison.
"""

import argparse
import glob
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")
# Smallest change given a verdict, whatever the base side's spread.
THRESHOLD = 0.05


def load(directory):
    """{(workload, trace): {metric: [values]}} plus units."""
    sets, units = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if not rec.get("correct"):
            print(f"skipping incorrect run {path}", file=sys.stderr)
            continue
        key = (rec["workload"], int(rec["trace"]))
        for name, m in rec["metrics"].items():
            sets.setdefault(key, {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return sets, units


def spread(values, relative):
    """Quartile distance (range below four values), over the median when
    `relative`."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        width = abs(q[2] - q[0])
    else:
        width = max(values) - min(values)
    if not relative:
        return width
    med = statistics.median(values)
    return width / abs(med) if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    with open(SPEC) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    base, units = load(args.base)
    new, _ = load(args.new)
    if not set(base) & set(new):
        print("no workload/mode present on both sides", file=sys.stderr)
        return 1
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b, n = base[key], new[key]
        nb = min(len(v) for v in b.values())
        nn = min(len(v) for v in n.values())
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{nb} base / {nn} new runs)")
        print(f"  {'metric':34} {'unit':6} {'base':>11} {'new':>11} "
              f"{'change':>8} {'noise':>6}  verdict   share base->new")
        b_total = statistics.median(b.get("trace.circuit_s", [0]))
        n_total = statistics.median(n.get("trace.circuit_s", [0]))
        for name in b:
            if name not in n:
                continue
            mb, mn = statistics.median(b[name]), statistics.median(n[name])
            if mb == 0 and mn == 0:
                continue
            relative = units[name] != "ratio"
            if relative:
                change = (mn - mb) / abs(mb) if mb else float("inf")
                shown, noise_shown = f"{change:+8.1%}", "{:6.1%}"
            else:
                change = mn - mb
                shown, noise_shown = f"{change:+8.3f}", "{:6.3f}"
            noise = spread(b[name], relative)
            verdict = "~"
            if abs(change) > max(THRESHOLD, noise):
                up_is_good = better.get(name) == "higher"
                verdict = "better" if (change > 0) == up_is_good else "worse"
            share = ""
            if (units[name] == "s" and trace and name != "trace.circuit_s"
                    and b_total and n_total
                    and not name.startswith("service.")):
                share = f"{mb / b_total:6.1%} -> {mn / n_total:6.1%}"
            print(f"  {name:34} {units[name]:6} {mb:11.4g} {mn:11.4g} "
                  f"{shown} {noise_shown.format(noise)}  {verdict:8}  "
                  f"{share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
