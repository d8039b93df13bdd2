#!/usr/bin/env python3
r"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload sparse_deep --seed 1 --seconds 40 \
        --trace 0

Builds perfbench_driver (CMake, Release) from the sources of this checkout on
first use, runs it with a private, initially empty TMPDIR and scratch
directory inside the checkout, gives the reported metrics their units from
BENCHMARK.json (failing on a name it lacks or an end-to-end metric not
measured) and prints two lines: a `detail` line with host facts and
workload detail, then the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--out FILE also writes the full record (host facts, detail, errors) as JSON,
the input of perfbench/compare.py. Exits 0 only when every operation was
correct and nothing leaked.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within this many seconds after its build.
RUN_DEADLINE_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            if cmd[1] == "-S":
                # A half-configured tree would skip configuration next time.
                shutil.rmtree(out_dir, ignore_errors=True)
            return False
    return True


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def with_units(values, spec, trace, problems):
    """The driver's {name: value} as {name: {value, unit}} in BENCHMARK.json's
    order. A per-layer metric the workload does not exercise reads 0; a
    missing end-to-end metric, or a name BENCHMARK.json lacks, is a problem."""
    defs = spec["per_layer" if trace else "end_to_end"]
    extra = sorted(set(values) - {m["name"] for m in defs})
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    metrics = {}
    for m in defs:
        if m["name"] not in values and not trace:
            problems.append(f"metric not measured: {m['name']}")
            continue
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                              "unit": m["unit"]}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="also write the full record here")
    args = ap.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        log("build failed")
        return 2
    driver = os.path.join(out_dir, "perfbench_driver")
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; BENCHMARK.json has "
            f"{workloads}")
        return 2

    # Private scratch inside the checkout: spill files (TMPDIR), checkpoints
    # and the service socket (a short relative path fits sun_path).
    run_rel = os.path.join(".bench_work", f"run-{os.getpid()}")
    run_abs = os.path.join(ROOT, run_rel)
    tmp_dir = os.path.join(run_abs, "tmp")
    work_rel = os.path.join(run_rel, "work")
    shutil.rmtree(run_abs, ignore_errors=True)
    os.makedirs(tmp_dir)
    os.makedirs(os.path.join(ROOT, work_rel))
    env = dict(os.environ, TMPDIR=tmp_dir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_rel]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {RUN_DEADLINE_S} s")
        return 1
    finally:
        leftovers = [os.path.join(d, f) for d, _, fs in os.walk(run_abs)
                     for f in fs]
        shutil.rmtree(run_abs, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        log(f"driver exited with {proc.returncode}")
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = list(record.get("errors", []))
    if leftovers:
        problems.append(f"files left in the run directory: {leftovers[:5]}")
    # A workload that stopped early has already said why; the metrics it
    # could not measure are no further news.
    record["metrics"] = with_units(record["metrics"], spec, args.trace,
                                   problems if record["correct"] else [])
    correct = record["correct"] and not problems

    record["host"].update(git_sha=git_sha(), source_sha256=source_digest(),
                          python=sys.version.split()[0])
    record["seconds_run"] = round(time.monotonic() - started, 3)
    record["correct"] = correct
    record["errors"] = problems
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    for p in problems:
        log(p)
    print("detail " + json.dumps({k: record[k] for k in (
        "workload", "seed", "trace", "host", "detail", "errors",
        "seconds_run")}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
