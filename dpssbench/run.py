#!/usr/bin/env python3
"""Builds dpss in Release from this checkout and runs one benchmark workload.

    python3 dpssbench/run.py --workload query_mu|update_churn|server_durable \
        --seed N --seconds S --trace 0|1
    python3 dpssbench/run.py --selftest

--trace 0 runs dpssbench_e2e (tracing off) and prints the end-to-end
metrics; --trace 1 runs dpssbench_layers (spans on, plus the per-layer
probes) and prints the per-layer metrics. Standard output ends with one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
stamps the run with machine, build, commit and seed. Build output and
diagnostics go to standard error. The build lives in $CARGO_TARGET_DIR
(default .bench_build) under the checkout root; spans and the server's
durable directory go under it too.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query_mu", "update_churn", "server_durable")
RUN_TIMEOUT_S = 170
# update_churn's item set fits in L2, and on a shared guest its speed
# differs by up to 20% from one process to the next (fresh heaps, address
# layouts and the vCPU a process runs on did not explain it). Its measured
# time is split over twenty processes and each metric is the median of
# theirs. Within a quiet minute, medians of twenty half-second processes
# agreed within about 4%; the host's load still moves them between minutes.
PROCESSES = {"update_churn": 20}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no dpss sources at {ROOT}")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
           "--target"] + targets
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def commit_id():
    """The git commit when there is one, and a hash of the sources always."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return commit, h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(cmd):
    """Runs `cmd` in its own process group; kills the whole group on a
    timeout or on exit, and waits for it. Returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Grandchildren (a server the benchmark failed to reap) end with the
        # group; give them a moment to be gone.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = "dpssbench_layers" if args.trace else "dpssbench_e2e"
    if not build(build_dir, [binary, "dpss-serverd"]):
        log("build failed")
        return 1
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    exe = os.path.join(build_dir, binary)
    if args.selftest:
        code, out = run_child([exe, "--selftest", "--tmp", tmp])
        sys.stdout.write(out)
        return code

    parts = 1 if args.trace else PROCESSES.get(args.workload, 1)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / parts),
           "--serverd", os.path.join(build_dir, "dpss", "dpss-serverd"),
           "--tmp", tmp]
    results, infos, code = [], [], 0
    for _ in range(parts):
        part_code, out = run_child(cmd)
        code = max(code, part_code)
        lines = [l for l in out.splitlines() if l.strip()]
        try:
            results.append(json.loads(lines[-1]))
            infos.append(json.loads(lines[-2])["info"])
            assert set(results[-1]) == {"correct", "attempted", "failed", "metrics"}
        except (IndexError, ValueError, KeyError, AssertionError):
            log(f"no result from {binary} (exit {part_code})")
            return 1
    result = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": {}}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        result["metrics"][name] = {"value": statistics.median(values),
                                   "unit": m["unit"]}
    info = infos[0]
    counts = {k: sum(i["counts"][k]["value"] for i in infos)
              for k in info["counts"]}
    commit, source = commit_id()
    stamp = {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
             "compiler": info["build"]["compiler"],
             "build_type": info["build"]["build_type"],
             "commit": commit, "source_sha256": source,
             "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "processes": parts, "counts": counts}
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
