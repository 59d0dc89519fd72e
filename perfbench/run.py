#!/usr/bin/env python3
"""Farm benchmark: host throughput of whole qosfarm jobs on named presets.

Run from the repository root:

    python3 perfbench/run.py --workload mixed-steady --seed 7 --seconds 20 --trace 0

Builds the qosctrl library and the `farmbench` harness (Release) into
.bench_build, then
  --trace 0  runs whole jobs, each in a fresh process, for --seconds and
             reports the end-to-end metrics (medians over the jobs), after
             checking every job's report digest against a 1-worker run of
             the same seed and the workload's shape guards;
  --trace 1  runs the traced profile once and reports the per-layer
             metrics (see perfbench/README.md).
The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
OUT_DIR = BUILD_DIR / "perfbench-out"
HARNESS = BUILD_DIR / "farmbench"

WORKLOADS = ("mixed-steady", "diurnal-faulted", "flash-storm")
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009
# A run starts jobs until --seconds have passed, but always at least
# MIN_JOBS so the medians have something to stand on.
MIN_JOBS = 3
JOB_TIMEOUT_S = 60
DEADLINE_S = 170

END_TO_END = (
    ("frames_per_s", "1/s"),
    ("job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no qosctrl source tree at {ROOT}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "farmbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    OUT_DIR.mkdir(parents=True, exist_ok=True)


def harness(mode, workload, seed, workers, timeout):
    """Runs one harness process; returns (exit code, last JSON line or None)."""
    cmd = [str(HARNESS), mode, "--workload", workload, "--seed", str(seed),
           "--workers", str(workers), "--out", str(OUT_DIR)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return -1, None
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


def provenance(workers):
    p = subprocess.run([str(HARNESS), "info"], capture_output=True, text=True,
                       timeout=30)
    if p.returncode:
        fail(p.stderr.strip() or "harness refused to run")
    info = json.loads(p.stdout.strip().splitlines()[-1])
    info["nproc"] = len(os.sched_getaffinity(0))
    info["workers"] = workers
    return info


def reference(workload, seed, timeout):
    """The 1-worker job of `seed`, whose report digest every timed job must
    reproduce.  Cached per harness binary: the digest is a pure function of
    (binary, workload, seed), so a repeated seed skips the 1-worker run."""
    key = hashlib.sha256(HARNESS.read_bytes()).hexdigest()[:16]
    path = OUT_DIR / f"ref-{workload}-{seed}-{key}.json"
    if path.is_file():
        return 0, json.loads(path.read_text())
    code, ref = harness("job", workload, seed, 1, timeout)
    if code == 0 and ref is not None and not ref["error"]:
        path.write_text(json.dumps(ref))
    return code, ref


def timed_runs(args, workers, deadline):
    jobs = []
    t0 = time.monotonic()
    while len(jobs) < MIN_JOBS or time.monotonic() - t0 < args.seconds:
        if time.monotonic() > deadline - JOB_TIMEOUT_S:
            break
        jobs.append(harness("job", args.workload, args.seed, workers,
                            JOB_TIMEOUT_S))
    ref_code, ref = reference(args.workload, args.seed,
                              max(1, min(JOB_TIMEOUT_S,
                                         deadline - time.monotonic())))
    ref_ok = ref_code == 0 and ref is not None and not ref["error"]
    ok, failed = [], 0
    for code, job in jobs:
        good = (code == 0 and job is not None and not job["error"] and ref_ok
                and job["digest"] == ref["digest"])
        if good:
            ok.append(job)
        else:
            failed += 1
            log(f"perfbench: failed job: exit {code}, {job}")
    if not ref_ok:
        log(f"perfbench: 1-worker reference failed: exit {ref_code}, {ref}")
    return ok, len(jobs), failed, ref


def report_timed(args, info, ok, attempted, failed, ref):
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"(default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})")
    print("# build " + json.dumps(info, sort_keys=True))
    if ref is not None:
        print(f"# report digest (1 worker) {ref['digest']}")
    print(f"# {len(ok)} whole jobs measured; one job is one run, so medians "
          "only, no tail percentile")
    metrics = {}
    for name, unit in END_TO_END:
        values = [j[name] for j in ok]
        if not values:
            continue
        med = statistics.median(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:14s} {med:14.6f} {unit:4s} median of {len(values)} "
              f"(min {min(values):.6f}, max {max(values):.6f})")
    print(f"{'error_rate':14s} {failed / max(1, attempted):14.6f} "
          f"ratio {failed} failed of {attempted} attempted")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    deadline = time.monotonic() + DEADLINE_S
    workers = max(1, min(4, len(os.sched_getaffinity(0))))
    info = provenance(workers)

    if args.trace:
        code, prof = harness("trace", args.workload, args.seed, workers,
                             max(1, deadline - time.monotonic()))
        if prof is None:
            fail(f"traced run produced no result (exit {code})")
        good = code == 0 and not prof["error"]
        print("# build " + json.dumps(info, sort_keys=True))
        print(f"# report digest {prof['digest']}")
        for name, m in prof["metrics"].items():
            print(f"{name:36s} {m['value']:16.6f} {m['unit']}")
        result = {"correct": good, "attempted": 1, "failed": 0 if good else 1,
                  "metrics": prof["metrics"]}
    else:
        ok, attempted, failed, ref = timed_runs(args, workers, deadline)
        metrics = report_timed(args, info, ok, attempted, failed, ref)
        if attempted == 0:
            fail("no job ran")
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
