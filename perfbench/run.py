#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # self-test, all workloads
    python3 perfbench/run.py --calibrate 16     # re-record reference.json

Run from the repository root. The C++ harness is built into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench) from the
repository's src/ tree. The last stdout line is the JSON result object;
every metric is also printed as "metric NAME VALUE UNIT". Each run is
recorded with the host fingerprint under .bench_build/results/, which
compare.py reads. See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Engine worker threads. End-to-end runs use one, bound to each CPU in
# turn (see README.md); the traced run's engine pass uses two, the
# baseline of driver.parallel_efficiency.
THREADS = {0: 1, 1: 2}
FILL_THREADS = 2     # warm_rerun's untimed cache fill
RUN_TIMEOUT_S = 175  # all harness processes of one run together


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def out_dir(*parts):
    d = os.path.join(os.path.dirname(build_dir()), *parts)
    os.makedirs(d, exist_ok=True)
    return d


def local_env():
    """Environment whose temporary files stay inside the checkout."""
    env = dict(os.environ)
    env["TMPDIR"] = out_dir("tmp")
    return env


def build():
    """Configure (once) and build the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hh")):
        die("no simulator sources under %s/src: run from a full checkout"
            % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            die("%s not found" % tool)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
               "-DPP_SOURCE_ROOT=" + ROOT]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=local_env())
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, env=local_env())
    return os.path.join(bdir, "perfbench")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """SHA-256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".hh", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(trace):
    """Host identity: results from different fingerprints never compare."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if cxx:
        try:
            version = subprocess.run([cxx, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            pass
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version or cxx,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "threads": THREADS[trace],
        "commit": commit,
        "source_digest": source_digest(),
    }


def run_harness(binary, args, deadline):
    """Run the harness; returns (returncode, stdout lines)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           text=True, env=local_env(),
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("harness exceeded %d s" % RUN_TIMEOUT_S, 3)
    return p.returncode, p.stdout.splitlines()


def run_workload(binary, workload, seed, seconds, trace, scale, work,
                 extra=()):
    """One run of a workload in a fresh work directory. warm_rerun's
    result cache is filled first by a process of its own, so the
    measured process's peak memory is that of the warm passes."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    args = ["--workload", workload, "--seed", str(seed),
            "--scale", scale, "--work-dir", work,
            "--reference", os.path.join(HERE, "reference.json")]
    shutil.rmtree(work, ignore_errors=True)
    try:
        if workload == "warm_rerun":
            code, _ = run_harness(binary, args + [
                "--fill-cache", "--threads", str(FILL_THREADS)], deadline)
            if code != 0:
                return code, []
        args += ["--seconds", str(seconds), "--trace", str(trace),
                 "--threads", str(THREADS[trace])]
        if trace:
            args += ["--trace-out", os.path.join(
                out_dir("traces"), "%s-seed%d.json" % (workload, seed))]
        return run_harness(binary, args + list(extra), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(opts):
    binary = build()
    fp = fingerprint(opts.trace)
    work = os.path.join(out_dir("work"), "%s-%d" % (opts.workload,
                                                    os.getpid()))
    code, lines = run_workload(binary, opts.workload, opts.seed,
                               opts.seconds, opts.trace, "full", work)
    if code != 0 or not lines or not lines[-1].startswith("{"):
        die("harness failed (exit %d)" % code, 1)
    result = json.loads(lines[-1])
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    record = {"workload": opts.workload, "seed": opts.seed,
              "seconds": opts.seconds, "trace": opts.trace,
              "fingerprint": fp, "report": lines[:-1], "result": result}
    path = os.path.join(out_dir("results"), "%s-seed%d-trace%d-%s.json" % (
        opts.workload, opts.seed, opts.trace, stamp))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(lines[-1])


def smoke():
    """Every workload at tiny windows: names, units, correctness, and a
    deliberately wrong reference digest reported as failed cells."""
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    def run(workload, trace, extra=()):
        work = os.path.join(out_dir("work"), "smoke-%s" % workload)
        code, lines = run_workload(binary, workload, 0, 1, trace, "smoke",
                                   work, extra)
        if code != 0 or not lines or not lines[-1].startswith("{"):
            problems.append("%s trace=%d: harness exit %d" % (workload, trace,
                                                              code))
            return None, []
        return json.loads(lines[-1]), lines[:-1]

    def check_names(workload, trace, result, lines, specs, extra_names):
        got = result["metrics"]
        want = {m["name"]: m["unit"] for m in specs}
        if set(got) != set(want):
            problems.append("%s trace=%d: metrics %s, expected %s" % (
                workload, trace, sorted(got), sorted(want)))
        for name, unit in want.items():
            if name in got and got[name]["unit"] != unit:
                problems.append("%s: %s unit %s, expected %s" % (
                    workload, name, got[name]["unit"], unit))
        printed = {l.split()[1] for l in lines if l.startswith("metric ")}
        for name in list(want) + extra_names:
            if name not in printed:
                problems.append("%s trace=%d: %s not printed" % (
                    workload, trace, name))
        if not result["correct"] or result["failed"] != 0:
            problems.append("%s trace=%d: not correct at HEAD" % (workload,
                                                                  trace))

    for w in (x["name"] for x in bench["workloads"]):
        result, lines = run(w, 0)
        if result:
            extra = ["failed_frac"]
            if w == "selective_sampled":
                extra.append("sampled_ipc_err_pct")
            check_names(w, 0, result, lines, bench["end_to_end"], extra)
        result, lines = run(w, 1)
        if result:
            check_names(w, 1, result, lines, bench["per_layer"], [])
            trace = os.path.join(out_dir("traces"), "%s-seed0.json" % w)
            with open(trace) as f:
                events = json.load(f)["traceEvents"]
            if not events or not any("top_self_layer=" in l for l in lines):
                problems.append("%s: empty span file or no top layer" % w)
        result, _ = run(w, 0, ["--corrupt-reference"])
        if result and (result["correct"] or result["failed"] < 1):
            problems.append("%s: a wrong reference digest was not reported"
                            " as a failed cell" % w)
        print("smoke %s: %s" % (w, "done"), file=sys.stderr)
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--calibrate", type=int, metavar="SEEDS")
    opts = ap.parse_args()
    if opts.smoke:
        return smoke()
    if opts.calibrate:
        binary = build()
        return subprocess.run([binary, "--calibrate",
                               os.path.join(HERE, "reference.json"),
                               "--seeds", str(opts.calibrate),
                               "--threads", str(os.cpu_count() or 1)]
                              ).returncode
    if not opts.workload:
        ap.error("--workload is required")
    measure(opts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
