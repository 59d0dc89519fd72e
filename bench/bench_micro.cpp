// Microbenchmarks (google-benchmark): the hot paths whose cost the
// paper's overhead claims depend on — the table-driven decision, the
// online (recomputing) decision, table construction, EDF scheduling,
// and the encoder kernels charged to the virtual platform.
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "encoder/decoder.h"
#include "encoder/frame_encoder.h"
#include "encoder/system_builder.h"
#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/presets.h"
#include "farm/shard.h"
#include "farm/simulator.h"
#include "media/dct.h"
#include "media/entropy.h"
#include "media/motion.h"
#include "media/padded_frame.h"
#include "media/quant.h"
#include "media/simd/kernels.h"
#include "media/synthetic_video.h"
#include "obs/buildinfo.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "qos/controller.h"
#include "quality/distortion.h"
#include "sched/edf.h"
#include "toolgen/codegen.h"
#include "util/rng.h"

namespace {

using namespace qosctrl;

const enc::EncoderSystem& encoder_system() {
  static const enc::EncoderSystem es = enc::build_encoder_system(
      99, 19555556, platform::figure5_cost_table());
  return es;
}

void BM_TableControllerDecision(benchmark::State& state) {
  qos::TableController ctl(encoder_system().tables);
  rt::Cycles t = 0;
  for (auto _ : state) {
    if (ctl.done()) ctl.start_cycle();
    benchmark::DoNotOptimize(ctl.next(t));
    t = (t + 150000) % 19000000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableControllerDecision);

void BM_OnlineControllerDecision(benchmark::State& state) {
  // The abstract algorithm recomputes Best_Sched per candidate level:
  // this is the cost the compiled tables avoid.
  const auto& es = encoder_system();
  qos::OnlineController ctl(*es.system);
  rt::Cycles t = 0;
  for (auto _ : state) {
    if (ctl.done()) ctl.start_cycle();
    benchmark::DoNotOptimize(ctl.next(t));
    t = (t + 150000) % 19000000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineControllerDecision);

void BM_SlackTableBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto es = enc::build_encoder_system(
      n, static_cast<rt::Cycles>(n) * 197531,
      platform::figure5_cost_table());
  for (auto _ : state) {
    benchmark::DoNotOptimize(qos::SlackTables::build(*es.system));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SlackTableBuild)->Arg(11)->Arg(33)->Arg(99)->Complexity();

void BM_EdfSchedule(benchmark::State& state) {
  const auto& es = encoder_system();
  const auto d = es.system->deadline_of(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::edf_schedule(es.system->graph(), d));
  }
}
BENCHMARK(BM_EdfSchedule);

void BM_GenerateCController(benchmark::State& state) {
  const auto& es = encoder_system();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        toolgen::generate_c_controller(*es.tables, es.system->graph()));
  }
}
BENCHMARK(BM_GenerateCController);

media::Block8 dct_input_block() {
  media::Block8 block;
  for (std::size_t i = 0; i < 64; ++i) {
    block[i] = static_cast<media::Residual>((i * 37) % 255 - 127);
  }
  return block;
}

void BM_ForwardDct8(benchmark::State& state) {
  const media::Block8 block = dct_input_block();
  media::Coeffs8 out;
  for (auto _ : state) {
    media::forward_dct8(block, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ForwardDct8);

void BM_ForwardDct8ScalarKernel(benchmark::State& state) {
  // The scalar fixed-point butterflies the AVX2 kernel is pinned
  // against — the dispatch-level speedup is this vs BM_ForwardDct8.
  const auto& t = media::simd::kernels_for(media::simd::Backend::kScalar);
  const media::Block8 block = dct_input_block();
  media::Coeffs8 out;
  for (auto _ : state) {
    t.fdct8(block.data(), out.data());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ForwardDct8ScalarKernel);

void BM_ForwardDct8Ref(benchmark::State& state) {
  // The double-precision triple-loop the fixed-point kernel replaced.
  const media::Block8 block = dct_input_block();
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::forward_dct8_ref(block));
  }
}
BENCHMARK(BM_ForwardDct8Ref);

media::Coeffs8 dct_input_coeffs() {
  media::Coeffs8 coeffs;
  media::forward_dct8(dct_input_block(), coeffs);
  return coeffs;
}

void BM_InverseDct8(benchmark::State& state) {
  const media::Coeffs8 coeffs = dct_input_coeffs();
  media::Block8 out;
  for (auto _ : state) {
    media::inverse_dct8(coeffs, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_InverseDct8);

void BM_InverseDct8Ref(benchmark::State& state) {
  const media::Coeffs8 coeffs = dct_input_coeffs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::inverse_dct8_ref(coeffs));
  }
}
BENCHMARK(BM_InverseDct8Ref);

// ---------------------------------------------------------------------------
// SAD per macroblock: the span kernel vs the per-pixel clamped scalar
// loop it replaced (unconditional bounds check on the current frame, a
// clamp branch on the reference, per pixel).

std::int64_t sad_macroblock_scalar(const media::Frame& cur,
                                   const media::Frame& ref, int x0, int y0,
                                   int dx, int dy) {
  std::int64_t acc = 0;
  for (int y = 0; y < media::kMacroBlockSize; ++y) {
    for (int x = 0; x < media::kMacroBlockSize; ++x) {
      const int a = cur.at(x0 + x, y0 + y);
      const int b = ref.at_clamped(x0 + x + dx, y0 + y + dy);
      acc += std::abs(a - b);
    }
  }
  return acc;
}

struct SadFixture {
  media::Frame cur;
  media::Frame ref;
  media::PaddedFrame padded;
  std::array<media::Sample, 256> block;
  SadFixture() {
    media::VideoConfig vc;
    vc.num_frames = 2;
    vc.num_scenes = 1;
    const media::SyntheticVideo video(vc);
    cur = video.frame(1);
    ref = video.frame(0);
    padded.update_from(ref);
    block = media::read_macroblock(cur, 80, 64);
  }
};

const SadFixture& sad_fixture() {
  static const SadFixture f;
  return f;
}

void BM_SadMacroblock(benchmark::State& state) {
  const auto& f = sad_fixture();
  int dx = -8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        media::sad_16x16(f.block.data(), f.padded.row(64 + 3) + 80 + dx,
                         f.padded.stride(), INT64_C(1) << 60));
    dx = (dx < 8) ? dx + 1 : -8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SadMacroblock);

void BM_SadMacroblockScalarKernel(benchmark::State& state) {
  // The dispatched kernel's scalar counterpart, for the speedup ratio.
  const auto& t = media::simd::kernels_for(media::simd::Backend::kScalar);
  const auto& f = sad_fixture();
  int dx = -8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.sad_16x16(f.block.data(), f.padded.row(64 + 3) + 80 + dx,
                    f.padded.stride(), INT64_C(1) << 60));
    dx = (dx < 8) ? dx + 1 : -8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SadMacroblockScalarKernel);

void BM_SadMacroblockX4(benchmark::State& state) {
  // The batched spiral-search kernel: 4 candidates per call;
  // items_per_second counts candidate SADs.
  const auto& f = sad_fixture();
  const media::Sample* refs[4];
  std::int64_t sads[4];
  int dx = -8;
  for (auto _ : state) {
    for (int k = 0; k < 4; ++k) {
      refs[k] = f.padded.row(64 + 3) + 80 + dx;
      dx = (dx < 8) ? dx + 1 : -8;
    }
    media::simd::active_kernels().sad_16x16_x4(
        f.block.data(), refs, f.padded.stride(), INT64_C(1) << 60, sads);
    benchmark::DoNotOptimize(sads);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_SadMacroblockX4);

void BM_HalfpelInterp(benchmark::State& state) {
  // Diagonal bilinear interpolation — the most expensive half-pel case.
  const auto& f = sad_fixture();
  std::array<media::Sample, 256> out;
  for (auto _ : state) {
    media::simd::active_kernels().halfpel_16x16(
        f.padded.row(64) + 80, f.padded.stride(), 1, 1, out.data());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HalfpelInterp);

void BM_SadMacroblockRef(benchmark::State& state) {
  const auto& f = sad_fixture();
  int dx = -8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sad_macroblock_scalar(f.cur, f.ref, 80, 64, dx, 3));
    dx = (dx < 8) ? dx + 1 : -8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SadMacroblockRef);

void BM_MotionSearch(benchmark::State& state) {
  const auto& f = sad_fixture();
  const int radius = static_cast<int>(state.range(0));
  for (auto _ : state) {
    media::MotionConfig cfg{radius, 0};
    benchmark::DoNotOptimize(
        media::estimate_motion(f.cur, f.ref, 80, 64, cfg));
  }
}
BENCHMARK(BM_MotionSearch)->Arg(1)->Arg(3)->Arg(5)->Arg(8);

void BM_MotionSearchPadded(benchmark::State& state) {
  // The encoder's hot configuration: the padded reference is built once
  // per frame, so the per-macroblock search sees only the span kernel.
  const auto& f = sad_fixture();
  const int radius = static_cast<int>(state.range(0));
  for (auto _ : state) {
    media::MotionConfig cfg{radius, 0};
    benchmark::DoNotOptimize(
        media::estimate_motion(f.cur, f.padded, 80, 64, cfg));
  }
}
BENCHMARK(BM_MotionSearchPadded)->Arg(1)->Arg(3)->Arg(5)->Arg(8);

// ---------------------------------------------------------------------------
// Distortion kernels (src/quality/): whole-frame PSNR accumulation and
// blockwise fixed-point SSIM through the dispatched table, with the
// scalar-kernel counterparts for the speedup ratio.

void BM_PsnrFrame(benchmark::State& state) {
  const auto& f = sad_fixture();  // two full QCIF luma frames
  for (auto _ : state) {
    benchmark::DoNotOptimize(quality::psnr(f.cur, f.ref));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsnrFrame);

void BM_PsnrFrameScalarKernel(benchmark::State& state) {
  const auto& t = media::simd::kernels_for(media::simd::Backend::kScalar);
  const auto& f = sad_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::psnr_from_sse(
        t.sum_sq_diff(f.cur.data().data(), f.ref.data().data(),
                      f.cur.data().size()),
        static_cast<std::int64_t>(f.cur.data().size())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsnrFrameScalarKernel);

void BM_SsimFrame(benchmark::State& state) {
  const auto& f = sad_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(quality::ssim(f.cur, f.ref));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsimFrame);

void BM_SsimFrameScalarKernel(benchmark::State& state) {
  const auto& f = sad_fixture();
  const auto original = media::simd::set_backend_for_testing(
      media::simd::Backend::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quality::ssim(f.cur, f.ref));
  }
  media::simd::set_backend_for_testing(original);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsimFrameScalarKernel);

// ---------------------------------------------------------------------------
// Quantize / Compress on the farm's traffic: the 396 luma blocks of a
// QCIF frame's residual against the previous frame (co-located), at
// QP 2 (the farm runs at QP 1.8-2.6 on average), which carries about
// as many nonzero levels per block as the farm's encoder emits.  Each
// iteration handles one block, cycling through the frame.

struct EntropyFixture {
  std::vector<media::Coeffs8> coeffs;
  std::vector<media::Coeffs8> levels;
  std::vector<std::uint8_t> stream;  // every block of `levels`, coded
  double nonzero_per_block = 0.0;
};

constexpr int kFixtureQp = 2;

const EntropyFixture& entropy_fixture() {
  static const EntropyFixture f = [] {
    EntropyFixture e;
    const media::SyntheticVideo video{media::VideoConfig{}};
    const media::Frame prev = video.frame(0);
    const media::Frame cur = video.frame(1);
    util::BitWriter bw;
    int nonzero = 0;
    for (int y0 = 0; y0 < cur.height(); y0 += 8) {
      for (int x0 = 0; x0 < cur.width(); x0 += 8) {
        media::Block8 residual;
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            residual[static_cast<std::size_t>(y * 8 + x)] =
                static_cast<media::Residual>(cur.at(x0 + x, y0 + y) -
                                             prev.at(x0 + x, y0 + y));
          }
        }
        media::Coeffs8 coeffs;
        media::forward_dct8(residual, coeffs);
        e.coeffs.push_back(coeffs);
        nonzero += media::quantize_block(coeffs, kFixtureQp);
        e.levels.push_back(coeffs);
        media::encode_block(bw, e.levels.back());
      }
    }
    e.stream = bw.finish();
    e.nonzero_per_block =
        static_cast<double>(nonzero) / static_cast<double>(e.levels.size());
    return e;
  }();
  return f;
}

void BM_QuantizeBlock(benchmark::State& state) {
  const auto& f = entropy_fixture();
  std::size_t i = 0;
  media::Coeffs8 levels;
  for (auto _ : state) {
    levels = f.coeffs[i];
    benchmark::DoNotOptimize(media::quantize_block(levels, kFixtureQp));
    benchmark::DoNotOptimize(levels);
    if (++i == f.coeffs.size()) i = 0;
  }
}
BENCHMARK(BM_QuantizeBlock);

void BM_EntropyEncodeBlock(benchmark::State& state) {
  const auto& f = entropy_fixture();
  util::BitWriter bw;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::encode_block(bw, f.levels[i]));
    benchmark::ClobberMemory();
    if (++i == f.levels.size()) {  // one frame's worth: hand it off
      i = 0;
      benchmark::DoNotOptimize(bw.finish());
    }
  }
  state.counters["nonzero_per_block"] = f.nonzero_per_block;
}
BENCHMARK(BM_EntropyEncodeBlock);

void BM_EntropyDecodeBlock(benchmark::State& state) {
  const auto& f = entropy_fixture();
  std::optional<util::BitReader> br(std::in_place, f.stream);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::decode_block(*br));
    if (++i == f.levels.size()) {
      i = 0;
      br.emplace(f.stream);
    }
  }
  state.counters["nonzero_per_block"] = f.nonzero_per_block;
}
BENCHMARK(BM_EntropyDecodeBlock);

// ---------------------------------------------------------------------------
// One whole QCIF P-frame through the encoder's nine-action body under
// the table controller at QP 2 (the farm's operating point), and the
// decode of its bitstream: the glue between the kernels is gated here,
// not only the kernels.  Inputs are rendered at run time.

struct FrameFixture {
  media::YuvFrame inter;  ///< frame 1, the P-frame under test
  /// An encoder that has coded frame 0 (the reference).
  enc::FrameEncoder primed{enc::EncoderConfig{}, cost_model()};
  std::vector<std::uint8_t> bitstream;  ///< frame 1 as coded by `primed`
  media::YuvFrame displayed;            ///< frame 0 as decoded

  static platform::CostModel cost_model() {
    return platform::CostModel(platform::figure5_cost_table(),
                               platform::CostModelConfig{}, util::Rng(7));
  }
};

constexpr int kFrameQp = 2;

const FrameFixture& frame_fixture() {
  static const FrameFixture f = [] {
    FrameFixture x;
    const media::SyntheticVideo video{media::VideoConfig{}};
    x.inter = video.frame_yuv(1);
    const enc::EncoderSystem& es = encoder_system();
    qos::TableController ctl(es.tables);
    x.primed.encode_frame(video.frame_yuv(0), ctl, *es.system, kFrameQp);
    enc::DecodeResult decoded =
        enc::decode_frame(x.primed.bitstream(), nullptr);
    QC_EXPECT(decoded.ok, "the reference frame must decode");
    x.displayed = std::move(decoded.frame);
    enc::FrameEncoder probe = x.primed;
    probe.encode_frame(x.inter, ctl, *es.system, kFrameQp);
    x.bitstream = probe.bitstream();
    return x;
  }();
  return f;
}

void BM_EncodeFrame(benchmark::State& state) {
  const FrameFixture& f = frame_fixture();
  const enc::EncoderSystem& es = encoder_system();
  qos::TableController ctl(es.tables);
  for (auto _ : state) {
    // Every iteration codes the same P-frame from the same state: the
    // encoder copy restores the reference and the cost model's draws.
    state.PauseTiming();
    enc::FrameEncoder encoder = f.primed;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        encoder.encode_frame(f.inter, ctl, *es.system, kFrameQp));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeFrame);

void BM_DecodeFrame(benchmark::State& state) {
  const FrameFixture& f = frame_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc::decode_frame(f.bitstream, &f.displayed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeFrame);

void BM_SyntheticFrame(benchmark::State& state) {
  const media::SyntheticVideo video{media::VideoConfig{}};
  int f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(video.frame(f));
    f = (f + 1) % video.num_frames();
  }
}
BENCHMARK(BM_SyntheticFrame);

// The farm's call: StreamSession::encode renders the full 4:2:0 frame
// (luma plus both chroma planes) from the same row kernel.
void BM_SyntheticFrameYuv(benchmark::State& state) {
  const media::SyntheticVideo video{media::VideoConfig{}};
  int f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(video.frame_yuv(f));
    f = (f + 1) % video.num_frames();
  }
}
BENCHMARK(BM_SyntheticFrameYuv);

// The same frames rendered in order through one carry, as a farm
// session renders them: each frame evaluates only the background strip
// its scene's pan exposed (and the first frame of each scene in full).
void BM_SyntheticFrameYuvCarried(benchmark::State& state) {
  const media::SyntheticVideo video{media::VideoConfig{}};
  media::SyntheticVideo::Carry carry;
  int f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(video.frame_yuv(f, &carry));
    f = (f + 1) % video.num_frames();
  }
}
BENCHMARK(BM_SyntheticFrameYuvCarried);

// Whole-farm throughput: a generated multi-stream scenario under
// admission control, end to end (control plane, per-processor run
// queues, real pixel encoding).  items_per_second reports simulated
// stream-frames per wall-second — the farm metric tracked in
// BENCH_micro.json; Arg is the worker-thread count.  Each family is
// registered twice: the 1-worker row, and the multi-worker rows with
// UseRealTime(), because their work runs on pool threads that the
// main thread's CPU time (the default clock) never sees.
void run_farm_throughput(benchmark::State& state, sched::PolicyKind policy,
                         bool faults = false, bool trace = false,
                         bool timeseries = false) {
  farm::LoadGenConfig load;
  load.num_streams = 6;
  load.resolutions = {{32, 32}};
  load.resolution_weights = {1.0};
  load.min_frames = 4;
  load.max_frames = 6;
  load.seed = 13;
  farm::FarmScenario scenario = farm::generate_scenario(load);
  scenario.sched.policy.kind = policy;
  scenario.sched.policy.context_switch_cost =
      platform::kContextSwitchCycles;
  scenario.sched.policy.quantum = 1000000;
  if (faults) {
    scenario.faults.overrun.probability = 0.25;
    scenario.faults.overrun.factor = 3.0;
    scenario.faults.loss.probability = 0.1;
  }
  farm::FarmConfig cfg;
  // 4 processors so the worker sweep below has real parallelism to
  // scale into (workers clamp to the processor count).
  cfg.num_processors = 4;
  cfg.workers = static_cast<int>(state.range(0));
  cfg.trace = trace;
  if (timeseries) {
    cfg.ts_window = 4000000;
    for (const char* text :
         {"latency_p99<1.5w@20ms", "miss_rate<=0.5", "queue_p99<64"}) {
      obs::SloSpec spec;
      if (obs::parse_slo(text, &spec, nullptr)) cfg.slos.push_back(spec);
    }
  }
  long long frames = 0;
  for (auto _ : state) {
    const farm::FarmResult r = farm::run_farm(scenario, cfg);
    benchmark::DoNotOptimize(r.encoded_frames);
    frames += r.total_frames;
  }
  state.SetItemsProcessed(frames);
}

void BM_FarmThroughput(benchmark::State& state) {
  run_farm_throughput(state, sched::PolicyKind::kNonPreemptiveEdf);
}
BENCHMARK(BM_FarmThroughput)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FarmThroughput)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The preemptive scheduling classes pay per-switch accounting in the
// data plane; these variants keep that overhead pinned alongside the
// np baseline (tools/check_bench_regression.py tracks all three).
void BM_FarmThroughputPreemptive(benchmark::State& state) {
  run_farm_throughput(state, sched::PolicyKind::kPreemptiveEdf);
}
BENCHMARK(BM_FarmThroughputPreemptive)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FarmThroughputPreemptive)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FarmThroughputQuantum(benchmark::State& state) {
  run_farm_throughput(state, sched::PolicyKind::kQuantumEdf);
}
BENCHMARK(BM_FarmThroughputQuantum)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FarmThroughputQuantum)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same farm under fault injection (WCET overruns policed + frame loss
// routed through decoder-side concealment): keeps the policer and the
// concealment chain's cost pinned relative to the fault-free baseline.
void BM_FarmThroughputFaults(benchmark::State& state) {
  run_farm_throughput(state, sched::PolicyKind::kNonPreemptiveEdf,
                      /*faults=*/true);
}
BENCHMARK(BM_FarmThroughputFaults)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FarmThroughputFaults)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Tracing on: the cost of the per-processor ring-buffer emission plus
// the merge/stable-sort at the end of the run.  Deliberately NOT in the
// tracked-regression set — its baseline is the delta against
// BM_FarmThroughputFaults, which IS gated with tracing off (the
// zero-overhead-when-off claim).
void BM_FarmThroughputTraced(benchmark::State& state) {
  run_farm_throughput(state, sched::PolicyKind::kNonPreemptiveEdf,
                      /*faults=*/true, /*trace=*/true);
}
BENCHMARK(BM_FarmThroughputTraced)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FarmThroughputTraced)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Windowed series + SLO evaluation on (tracing stays off): the cost of
// the per-processor window accumulators, the index-order merge, and
// the verdict engine over the merged series.  Tracked in
// BENCH_micro.json next to the plain baseline, so the observability
// layer's overhead is gated the same way the tracer's is.
void BM_FarmThroughputTimeseries(benchmark::State& state) {
  run_farm_throughput(state, sched::PolicyKind::kNonPreemptiveEdf,
                      /*faults=*/true, /*trace=*/false, /*timeseries=*/true);
}
BENCHMARK(BM_FarmThroughputTimeseries)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FarmThroughputTimeseries)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Admission-control churn at scale: N resident streams packed ~64 per
// processor at ~0.95 committed utilization, then a steady-state
// join/leave probe rotating over the processors.  items_per_second is
// admit+release cycles per wall-second, through the production path:
// warm-seeded QPA, incremental per-processor demand caches and the
// release host index.

struct AdmissionChurnFixture {
  farm::TableCache tables{platform::figure5_cost_table()};
  std::unique_ptr<farm::ShardedControlPlane> ctl;
  int procs = 0;

  // One-macroblock streams, committed at the richest share-capped
  // candidate (3 x min_budget), round-robined over the processors so
  // each hosts the same geometric period ladder: periods
  // round(24 * 1.145^slot) x min_budget for slots 0..63, i.e. ~0.99
  // committed utilization spread over timescales from 24 to ~120k.
  // The smooth spectrum keeps the busy-period recursion alive across
  // every scale (a two-timescale mix stalls at the first gap): tens of
  // thousands of deadlines fall in each admission's horizon — the
  // dense high-utilization regime QPA collapses to a short downward
  // iteration.
  farm::StreamSpec stream(int id) const {
    const int slot = id / procs;  // same ladder on every processor
    farm::StreamSpec s;
    s.id = id;
    s.width = 16;
    s.height = 16;
    s.frame_period =
        std::lround(24.0 * std::pow(1.145, slot)) * tables.min_budget(1);
    return s;
  }

  explicit AdmissionChurnFixture(int residents) {
    procs = (residents + 63) / 64;
    ctl = std::make_unique<farm::ShardedControlPlane>(
        procs, farm::ShardPlaneConfig{}, farm::AdmissionConfig{}, &tables);
    for (int i = 0; i < residents; ++i) {
      const farm::Placement pl = ctl->admit(stream(i), i % procs);
      if (!pl.admitted) std::abort();  // fixture invariant, not a result
    }
  }
};

// The resident population is expensive to build, so it is constructed
// once per size and shared across google-benchmark's repeated timing
// runs.
AdmissionChurnFixture& admission_fixture(int residents) {
  static std::map<int, std::unique_ptr<AdmissionChurnFixture>> cache;
  auto& slot = cache[residents];
  if (!slot) slot = std::make_unique<AdmissionChurnFixture>(residents);
  return *slot;
}

void BM_AdmissionThroughput(benchmark::State& state) {
  const int residents = static_cast<int>(state.range(0));
  AdmissionChurnFixture& f = admission_fixture(residents);
  const int probe_id = residents;  // fresh id, reused every iteration
  int p = 0;
  for (auto _ : state) {
    farm::StreamSpec s = f.stream(probe_id);
    const farm::Placement pl = f.ctl->admit(s, p);
    benchmark::DoNotOptimize(pl.admitted);
    f.ctl->release(probe_id, 0);
    p = (p + 1) % f.procs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmissionThroughput)->Arg(1000)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// Join-storm rate through the control-plane router: a pinned
// 10k-stream flash-crowd preset offered to a 1024-processor fleet,
// with the shard count as the argument.  The storm saturates the
// fleet, so most joins are rejections — the regime where a single
// controller sweeps every processor's candidate ladder per verdict,
// while the sharded router's per-join work is bounded by the shard
// size: one scan of the S cached shard floors plus verdicts from the
// preferred shard and one probe.  items_per_second is joins routed per
// wall-second; the S=64 / S=1 ratio backs the >= 10x
// sharded-join-rate claim in docs/scenarios.md
// (tools/check_bench_regression.py tracks both).

const farm::FarmScenario& flash_crowd_10k() {
  static const farm::FarmScenario scenario = [] {
    farm::PresetParams pp;
    pp.num_streams = 10000;
    return farm::compile_preset(farm::PresetKind::kFlashCrowd, pp);
  }();
  return scenario;
}

void BM_ShardedJoinRate(benchmark::State& state) {
  static farm::TableCache tables(platform::figure5_cost_table());
  const farm::FarmScenario& scenario = flash_crowd_10k();
  farm::ShardPlaneConfig plane_cfg;
  plane_cfg.shards = static_cast<int>(state.range(0));
  long long joins = 0;
  for (auto _ : state) {
    farm::ShardedControlPlane plane(1024, plane_cfg, farm::AdmissionConfig{},
                                    &tables, scenario.sched);
    for (const farm::StreamSpec& spec : scenario.streams) {
      const farm::Placement pl = plane.admit(spec);
      benchmark::DoNotOptimize(pl.admitted);
    }
    joins += static_cast<long long>(scenario.streams.size());
  }
  state.SetItemsProcessed(joins);
}
BENCHMARK(BM_ShardedJoinRate)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Report writing: the Chrome trace export, and the JSON and CSV reports,
// of one small faulted farm (overruns, loss, a transient failure, the
// windowed series and SLOs) run once at set-up.  A job writes its
// reports serially after the parallel run, so their cost adds straight
// to its wall time (tools/check_bench_regression.py tracks the trace).

const farm::FarmResult& faulted_farm_result() {
  static const farm::FarmResult result = [] {
    farm::LoadGenConfig load;
    load.num_streams = 12;
    load.resolutions = {{32, 32}};
    load.resolution_weights = {1.0};
    load.min_frames = 20;
    load.max_frames = 30;
    load.seed = 13;
    farm::FarmScenario scenario = farm::generate_scenario(load);
    scenario.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
    scenario.sched.policy.context_switch_cost =
        platform::kContextSwitchCycles;
    scenario.faults.overrun.probability = 0.25;
    scenario.faults.overrun.factor = 3.0;
    scenario.faults.loss.probability = 0.1;
    scenario.faults.failures.push_back({1, 20000000, 5000000});
    farm::FarmConfig cfg;
    cfg.num_processors = 4;
    cfg.trace = true;
    cfg.ts_window = 4000000;
    for (const char* text :
         {"latency_p99<1.5w@20ms", "miss_rate<=0.5", "queue_p99<16"}) {
      obs::SloSpec spec;
      if (obs::parse_slo(text, &spec, nullptr)) cfg.slos.push_back(spec);
    }
    return farm::run_farm(scenario, cfg);
  }();
  return result;
}

void BM_ExportChromeTrace(benchmark::State& state) {
  const farm::FarmResult& r = faulted_farm_result();
  const int procs = static_cast<int>(r.processors.size());
  for (auto _ : state) {
    const std::string json = obs::export_chrome_trace(r.trace, procs);
    benchmark::DoNotOptimize(json.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(r.trace.size()));
}
BENCHMARK(BM_ExportChromeTrace)->Unit(benchmark::kMicrosecond);

void BM_FarmReportJson(benchmark::State& state) {
  const farm::FarmResult& r = faulted_farm_result();
  for (auto _ : state) {
    const std::string json = farm::to_json(r);
    const std::string csv = farm::to_csv(r);
    benchmark::DoNotOptimize(json.data());
    benchmark::DoNotOptimize(csv.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FarmReportJson)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): stamp the provenance of the
// binary into the JSON context block so a committed BENCH_micro.json
// is attributable to a tree, compiler, and dispatched SIMD backend.
int main(int argc, char** argv) {
  const qosctrl::obs::BuildInfo info = qosctrl::obs::build_info();
  benchmark::AddCustomContext("version", info.version);
  benchmark::AddCustomContext("compiler", info.compiler);
  benchmark::AddCustomContext("simd_backend", info.simd_backend);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
