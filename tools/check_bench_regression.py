#!/usr/bin/env python3
"""Compare a fresh bench_micro run against the committed baseline.

Reads two google-benchmark JSON files (the format tools/run_bench.sh
writes: aggregates only, 3 repetitions) and fails when a tracked
benchmark's mean time regressed by more than the allowed factor.  The
time is cpu_time, except on BM_FarmThroughput* rows, which are gated
on real_time: their multi-worker rows run on pool threads whose work
the main thread's cpu_time leaves out.

CI runners and developer machines differ in absolute speed, so by
default every per-benchmark ratio is normalized by the *median* ratio
across all benchmarks shared by the two files: a uniformly slower
machine cancels out, while a single kernel that regressed relative to
its peers stands out.  Pass --absolute to compare raw times instead
(meaningful only against a baseline recorded on the same machine).

When $GITHUB_STEP_SUMMARY is set (i.e. under GitHub Actions), a
markdown per-kernel delta table of every shared benchmark is appended
to the job summary, tracked rows bolded with their verdicts.

Usage:
  tools/check_bench_regression.py BASELINE.json CURRENT.json \
      [--benchmarks REGEX] [--max-slowdown 1.25] [--absolute]
"""

import argparse
import json
import os
import re
import sys

# Anchored: must not also catch the deliberately-slow reference /
# scalar-kernel variants (BM_SadMacroblockRef, BM_ForwardDct8Ref,
# BM_SsimFrameScalarKernel, ...).  The farm throughput is tracked per
# scheduling policy: np (bare), preemptive, and quantum-sliced run
# queues, plus the faulted run and the faulted run with the windowed
# time series + SLO engine on (Timeseries — gates the observability
# layer's overhead); SsimFrame tracks the frame scorer's block scan.
# AdmissionThroughput tracks steady-state admission churn (QPA at
# 1k/10k/100k resident streams — see docs/admission.md).
# ShardedJoinRate tracks the flash-crowd join storm on a 1024-processor
# fleet at 1 and 64 shards: the pinned >= 10x sharded-vs-single join
# rate lives in the ratio of these two rows (see docs/scenarios.md).
# SyntheticFrame(Yuv) tracks the video source's cold renders: the luma
# frame and the full 4:2:0 frame; SyntheticFrameYuvCarried renders the
# 4:2:0 frames in order through one carry, as a farm session does.  QuantizeBlock and
# Entropy(Encode|Decode)Block track the encoder's Quantize / Compress
# actions and the decoder's block parse on farm-like blocks; EncodeFrame
# tracks one whole QCIF P-frame through the encoder's action body, so
# the glue between the kernels is gated too, and DecodeFrame that
# frame's decode (the farm's delivery path).  ExportChromeTrace tracks
# the trace export of a small faulted farm, the largest report a job
# writes serially after its run.
# Multi-worker farm rows
# carry google-benchmark's /real_time suffix.
DEFAULT_BENCHMARKS = (
    r"^BM_(SadMacroblock|ForwardDct8|SsimFrame"
    r"|SyntheticFrame(Yuv(Carried)?)?"
    r"|QuantizeBlock|Entropy(Encode|Decode)Block|(En|De)codeFrame"
    r"|ExportChromeTrace"
    r"|AdmissionThroughput/\d+"
    r"|ShardedJoinRate/\d+"
    r"|FarmThroughput(Preemptive|Quantum|Faults|Timeseries)?/\d+"
    r"(/real_time)?)$"
)


def gated_time(run_name):
    """The JSON field a row is gated on (see the module docstring)."""
    return "real_time" if "FarmThroughput" in run_name else "cpu_time"


def load_means(path):
    """run_name -> mean gated time from an aggregates-only JSON.  Both
    fields use the row's own time_unit, so ratios are unit-free."""
    with open(path) as f:
        doc = json.load(f)
    means = {}
    for b in doc.get("benchmarks", []):
        if b.get("aggregate_name") != "mean":
            continue
        name = b["run_name"]
        means[name] = float(b[gated_time(name)])
    return means


def write_step_summary(rows, scale, max_slowdown, failures, missing,
                       added):
    """Append the per-kernel delta table to $GITHUB_STEP_SUMMARY."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Bench regression check", ""]
    if missing:
        lines.append(
            f":x: **{len(missing)} tracked benchmark(s) disappeared "
            f"from the current run:** {', '.join(missing)}"
        )
        lines.append("")
    if added:
        lines.append(
            f"New benchmarks not in the baseline (untracked until the "
            f"baseline is refreshed): {', '.join(added)}"
        )
        lines.append("")
    if scale != 1.0:
        lines.append(
            f"Machine-speed normalization: median ratio **{scale:.3f}** "
            f"over {len(rows)} shared benchmarks."
        )
        lines.append("")
    lines.append(
        "| benchmark | baseline (ns) | current (ns) | ratio "
        "| normalized | delta | verdict |"
    )
    lines.append("|---|---:|---:|---:|---:|---:|---|")
    for name, base_ns, cur_ns, ratio, norm, tracked in rows:
        delta = (norm - 1.0) * 100.0
        if not tracked:
            verdict = "untracked"
        elif norm > max_slowdown:
            verdict = ":x: FAIL"
        else:
            verdict = ":white_check_mark: ok"
        label = f"**{name}**" if tracked else name
        lines.append(
            f"| {label} | {base_ns:.1f} | {cur_ns:.1f} | x{ratio:.3f} "
            f"| x{norm:.3f} | {delta:+.1f}% | {verdict} |"
        )
    lines.append("")
    if failures:
        lines.append(
            f"**{len(failures)} benchmark(s) regressed beyond "
            f"x{max_slowdown}:** {', '.join(failures)}"
        )
    else:
        tracked_count = sum(1 for r in rows if r[5])
        lines.append(
            f"All {tracked_count} tracked benchmarks within "
            f"x{max_slowdown}."
        )
    lines.append("")
    with open(path, "a") as f:
        f.write("\n".join(lines))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--benchmarks", default=DEFAULT_BENCHMARKS,
                    help="regex of run_names that must not regress "
                         f"(default: {DEFAULT_BENCHMARKS})")
    ap.add_argument("--max-slowdown", type=float, default=1.25,
                    help="failure threshold on the (normalized) "
                         "time ratio (default: 1.25 = 25%% slower)")
    ap.add_argument("--absolute", action="store_true",
                    help="skip machine-speed normalization")
    args = ap.parse_args()

    base = load_means(args.baseline)
    cur = load_means(args.current)
    pattern = re.compile(args.benchmarks)
    shared = sorted(set(base) & set(cur))

    # A tracked benchmark that vanished from the current run is a
    # regression in its own right (renamed, deleted, or silently not
    # built) — it must not pass just because there is nothing left to
    # compare.  New benchmarks are fine but called out: they are
    # invisible to the gate until the baseline is refreshed.
    missing = sorted(n for n in base if pattern.search(n) and n not in cur)
    added = sorted(n for n in cur if n not in base)
    if added:
        print(f"note: {len(added)} benchmark(s) not in the baseline "
              f"(untracked): {', '.join(added)}")

    if not shared:
        print("error: no shared benchmark aggregates between the files")
        return 2

    ratios = {name: cur[name] / base[name] for name in shared
              if base[name] > 0}
    if args.absolute:
        scale = 1.0
    else:
        ordered = sorted(ratios.values())
        mid = len(ordered) // 2
        scale = (ordered[mid] if len(ordered) % 2
                 else 0.5 * (ordered[mid - 1] + ordered[mid]))
        print(f"machine-speed normalization: median ratio {scale:.3f} "
              f"over {len(ordered)} shared benchmarks")

    tracked = [n for n in shared if n in ratios and pattern.search(n)]
    if not tracked:
        print(f"error: no shared benchmarks match /{args.benchmarks}/")
        return 2

    failures = []
    rows = []
    for name in shared:
        if name not in ratios:
            continue
        norm = ratios[name] / scale
        is_tracked = name in tracked
        rows.append((name, base[name], cur[name], ratios[name], norm,
                     is_tracked))
        if not is_tracked:
            continue
        verdict = "FAIL" if norm > args.max_slowdown else "ok"
        print(f"{verdict:>4}  {name}: {base[name]:.1f} -> {cur[name]:.1f} ns "
              f"(x{ratios[name]:.3f}, normalized x{norm:.3f})")
        if norm > args.max_slowdown:
            failures.append(name)

    write_step_summary(rows, scale, args.max_slowdown, failures, missing,
                       added)

    if missing:
        print(f"\nerror: {len(missing)} tracked benchmark(s) missing "
              f"from the current run: {', '.join(missing)}")
        return 1
    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"x{args.max_slowdown}: {', '.join(failures)}")
        return 1
    print(f"\nall {len(tracked)} tracked benchmarks within "
          f"x{args.max_slowdown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
