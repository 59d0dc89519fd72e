#!/usr/bin/env sh
# Builds bench_micro and records the kernel microbenchmarks to
# BENCH_micro.json (google-benchmark JSON: ns/op per benchmark) so the
# perf trajectory of the hot kernels — SAD per macroblock, forward /
# inverse DCT, motion search, the table-driven controller decision,
# the steady-state admission churn (BM_AdmissionThroughput at 1k /
# 10k / 100k resident streams, items_per_second = admit+release
# cycles per wall-second),
# the video source (BM_SyntheticFrame = one QCIF luma frame,
# BM_SyntheticFrameYuv = the full 4:2:0 frame, BM_SyntheticFrameYuvCarried
# = the same frames rendered in order through one carry, as the farm
# renders them),
# the encoder's Quantize / Compress path and the decoder's block parse
# on farm-like blocks (BM_QuantizeBlock, BM_EntropyEncodeBlock,
# BM_EntropyDecodeBlock: ns per 8x8 block, about 43 nonzero levels;
# BM_EntropyCountBlock counts the same blocks' bits without packing),
# one whole QCIF P-frame through the encoder's action body at QP 2 and
# the decode of its bitstream (BM_EncodeFrame, BM_DecodeFrame;
# BM_EncodeFrameCounted codes it with bit counts only, as the farm
# codes every frame no decoder reads),
# and the encoder-farm throughput (BM_FarmThroughput* items_per_second
# = simulated stream-frames per wall-second, multi-worker rows timed in
# wall time via UseRealTime(); the Preemptive / Quantum
# suffixes run the same load under those scheduling policies, Faults
# adds the injection chain, Traced turns the schedule trace on,
# Timeseries turns the windowed accumulators + SLO evaluation on),
# and the sharded join storm (BM_ShardedJoinRate at 1 / 64 shards on a
# 1024-processor fleet, items_per_second = admission verdicts per
# wall-second on the pinned 10k-stream flash-crowd; the 64-shard row
# must stay >= 10x the one-shard row), and the report writers
# on a small faulted farm (BM_ExportChromeTrace: the Chrome trace
# export, items_per_second = events per second; BM_FarmReportJson: the
# JSON plus the CSV report) — is tracked across PRs.
#
# Usage: tools/run_bench.sh [build-dir] [output.json]
set -e

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro.json}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$ROOT" -DQOSCTRL_BUILD_BENCHES=ON \
      -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target bench_micro -j "$(nproc)" >/dev/null

"$BUILD_DIR/bench_micro" \
    --benchmark_filter='BM_(SadMacroblock|HalfpelInterp|ForwardDct8|InverseDct8Ref|MotionSearch|TableControllerDecision|SsimFrame|SyntheticFrame(Yuv(Carried)?)?|QuantizeBlock|Entropy(Encode|Count|Decode)Block|(Encode|Decode)Frame|EncodeFrameCounted|AdmissionThroughput|ShardedJoinRate|FarmThroughput(Preemptive|Quantum|Faults|Traced|Timeseries)?|ExportChromeTrace|FarmReportJson)' \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out_format=json \
    --benchmark_out="$OUT"

echo "wrote $OUT"
