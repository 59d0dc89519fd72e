// qoseval — the policy-evaluation harness: a grid sweep over
// scenario x quality policy x scheduling policy x renegotiation,
// scored on the quality / miss frontier.
//
// The farm turns overload into rejections or degradation instead of
// deadline misses; whether that trade is *worth it* is a question
// about delivered quality, which the distortion subsystem
// (quality/distortion.h) now measures per frame.  qoseval runs the
// same offered loads under every combination of:
//
//   * scenario          — a named FarmScenario (a generated load or a
//                         preset, compiled by the caller);
//   * quality policy    — how per-stream quality decisions are made:
//                         the paper's table-driven controller vs the
//                         industrial fixed-quality baseline;
//   * scheduling policy — np / preemptive / quantum EDF run queues;
//   * renegotiation     — budget shrinking (and restoring) on / off;
//   * faults            — optionally, the same load replayed under an
//                         injected fault scenario (farm/faults.h), so
//                         graceful degradation is scored on the same
//                         frontier as fair-weather quality;
//
// and reduces each cell to one comparable score.  Per-stream quality
// (PSNR, SSIM) and safety (skips, display misses) signals can
// partially conflict — a stream may score high PSNR while missing
// frames, or PSNR and SSIM may disagree about degradation — so the
// reduction uses a two-source belief combination in the style of
// Martin & Osswald's conflict-redistributing rules (PCR5 on the
// binary frame {good, bad}, one simple support function per metric)
// followed by reliability discounting by the stream's delivered-frame
// rate and by its latency tail (the 95th-percentile start lag as a
// fraction of the latency window, scaled by latency_discount — a
// stream that delivers every frame but always at the edge of its
// deadline is worth less than one with slack).  Rejected streams
// contribute zero — rejection is a quality decision too.
//
// Cells are independent, so the sweep fans out on host worker
// threads; results are keyed by grid index and every cell runs the
// farm with a fixed inner worker count, so the sweep is bit-identical
// for any worker count (pinned in tests/quality/qoseval_test.cpp).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "farm/simulator.h"

namespace qosctrl::quality {

/// How the streams of a scenario make their quality decisions.
enum class QualityPolicy {
  kControlled,  ///< the paper's table-driven controller
  kConstant,    ///< fixed-quality baseline at SweepConfig::constant_quality
};

const char* quality_policy_name(QualityPolicy p);

/// The quality-policy axis of every sweep, in report order.
inline constexpr std::array<QualityPolicy, 2> kQualityPolicies = {
    QualityPolicy::kControlled, QualityPolicy::kConstant};

/// One scenario-axis entry: an offered load and the name the reports
/// print for it.
struct NamedScenario {
  std::string name;
  farm::FarmScenario scenario;
};

struct SweepConfig {
  /// Scenario axis, in report order.
  std::vector<NamedScenario> scenarios;
  /// Scheduling-policy axis (np / preemptive / quantum, with their
  /// context-switch and quantum parameters).
  std::vector<sched::PolicyParams> sched_policies;
  /// Renegotiation axis (admission-time budget shrinking; the restore
  /// pass follows the same flag).
  std::vector<bool> renegotiate = {false, true};
  /// C=D semi-partitioned splitting (farm/scenario.h), applied to
  /// every cell — a knob, not an axis, so grids stay comparable.
  bool split = false;
  /// Level every stream encodes at under QualityPolicy::kConstant.
  rt::QualityLevel constant_quality = 3;
  /// Fault axis: cells run fault-free (false) and/or under `faults`
  /// (true).  {false} by default — faults are opt-in.
  std::vector<bool> fault_axis = {false};
  /// The fault scenario faulted cells replay (farm/faults.h).
  farm::FaultSpec faults{};
  /// Weight of the latency-tail discount in the fused score: a
  /// stream's reliability is scaled by
  /// 1 - latency_discount * (start_lag_p95 / latency window).
  double latency_discount = 0.25;

  /// Windowed time-series width passed to every cell farm (0 = off;
  /// required for windowed SLO metrics — see obs/timeseries.h).
  rt::Cycles ts_window = 0;
  /// Objectives evaluated per cell (obs/slo.h); the verdicts land in
  /// the grid CSV's slo_* columns.
  std::vector<obs::SloSpec> slos;

  int num_processors = 2;
  /// Admission shards per cell farm (farm/shard.h); 1 keeps the
  /// single-controller plane.
  int shards = 1;
  /// Host threads over grid cells, capped at the cell count (each
  /// cell's farm runs with one inner worker); any value yields
  /// bit-identical results.
  int workers = 1;
  std::uint64_t farm_seed = 2026;
};

/// One grid cell: the coordinates and the measured outcome.
struct CellResult {
  int scenario = 0;  ///< index on the scenario axis
  std::string scenario_name;  ///< the scenario-axis entry's name
  QualityPolicy quality_policy = QualityPolicy::kControlled;
  sched::PolicyParams sched{};
  bool renegotiate = false;
  bool faulted = false;  ///< played under SweepConfig::faults

  int offered = 0;
  int admitted = 0;
  int rejected = 0;
  long long total_frames = 0;
  int skips = 0;
  int display_misses = 0;
  int internal_misses = 0;
  long long concealed = 0;  ///< fault-concealed frames (stale display)
  double mean_psnr = 0.0;
  double mean_ssim = 0.0;
  double psnr_p5 = 0.0;  ///< min over streams of their p5 PSNR
  /// (skips + display misses + concealed) / total frames of admitted
  /// streams.
  double miss_rate = 0.0;
  /// Mean over *offered* streams of the fused per-stream belief
  /// (PCR5-combined PSNR/SSIM support, discounted by delivered-frame
  /// reliability and the latency tail; 0 for rejected streams), in
  /// [0, 1].
  double fused_quality = 0.0;
  /// SLO verdicts (defaults when SweepConfig::slos is empty):
  /// violations summed over objectives, worst window / remaining
  /// budget of the tightest objective, met = every objective met.
  long long slo_violations = 0;
  long long slo_worst_window = -1;
  double slo_budget_remaining = 1.0;
  bool slo_met = true;
};

/// One policy combination (quality x sched x renegotiation) averaged
/// over the scenario axis — a point on the quality / miss frontier.
struct PolicyFrontierPoint {
  QualityPolicy quality_policy = QualityPolicy::kControlled;
  sched::PolicyParams sched{};
  bool renegotiate = false;
  bool faulted = false;

  double fused_quality = 0.0;  ///< mean over scenarios
  double miss_rate = 0.0;      ///< mean over scenarios
  double mean_psnr = 0.0;
  double mean_ssim = 0.0;
  double rejection_rate = 0.0;
  /// Number of other frontier points this one dominates (>= quality,
  /// <= miss rate, one strictly); points no other point dominates are
  /// the frontier.
  int dominates = 0;
  bool dominated = false;
};

struct SweepResult {
  std::vector<CellResult> cells;  ///< grid order: scenario-major
  /// Ranked best-first: non-dominated before dominated, then by fused
  /// quality, miss rate, and the stable axis order.
  std::vector<PolicyFrontierPoint> ranking;
};

/// Per-stream fusion, exposed for tests: PCR5 combination of the two
/// quality supports followed by reliability discounting by the
/// delivered fraction and by `latency_discount * lag_fraction`, where
/// lag_fraction is the stream's 95th-percentile start lag as a
/// fraction of its latency window (both clamped to [0, 1]).
double fuse_stream_quality(double mean_psnr, double mean_ssim,
                           double delivered_fraction, double lag_fraction,
                           double latency_discount);

/// Runs the full grid.  Deterministic in (config); the worker count
/// changes wall time only.
SweepResult run_sweep(const SweepConfig& config);

/// Human-readable report: the ranking table (frontier marked) and the
/// per-cell grid.
std::string summarize(const SweepResult& result);

/// CSV, one row per grid cell.
std::string to_csv(const SweepResult& result);

}  // namespace qosctrl::quality
