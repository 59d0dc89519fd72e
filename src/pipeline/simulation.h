// The end-to-end video system of Figure 3: a camera producing a frame
// every P cycles into an input buffer of size K, the encoder consuming
// frames one at a time, and frame skips when the input buffer is full.
//
// Timing model (single-threaded encoder, event-driven simulation):
//  * frame f arrives at a_f = f * P;
//  * the encoder pops the oldest buffered frame as soon as it is free;
//  * an arrival finding K frames buffered is dropped (a frame skip) —
//    the decoder then re-displays the previous output frame, which is
//    how skipped frames get their (low) PSNR score;
//  * a popped frame's deadline is a_f + K * P (the paper's "maximal
//    latency P*K"), so the controlled encoder's per-frame budget is
//    K * P measured from arrival — "in average P" for K = 1 because a
//    safe controller is always free again by the next arrival.
//
// The controlled encoder measures elapsed time from the frame's
// *arrival* when it starts on time.  A frame that starts late (buffer
// occupancy, K > 1) is *re-paced*: its per-action deadlines are spread
// over the remaining window max(arrival, start) .. arrival + K * P and
// elapsed time is measured from the actual start, so backlog shrinks
// the budget without leaving already-expired early deadlines behind —
// the paced-from-arrival artifact that used to log spurious
// intermediate misses while the display deadline a_f + K * P still
// held.  Re-pacing applies to the table-driven, online, and constant
// controllers; the adaptive and feedback controllers carry state
// across frames and keep arrival pacing.  Re-paced systems are
// compiled on demand and cached per remaining budget.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "encoder/frame_encoder.h"
#include "encoder/rate_control.h"
#include "encoder/system_builder.h"
#include "media/synthetic_video.h"
#include "qos/adaptive.h"
#include "qos/controller.h"
#include "qos/feedback.h"

namespace qosctrl::pipe {

enum class ControlMode {
  kControlled,       ///< fine-grain QoS controller (table-driven)
  kConstantQuality,  ///< the paper's industrial baseline
  kFeedback,         ///< per-cycle PID on utilization (Lu et al. style)
};

struct PipelineConfig {
  media::VideoConfig video{};   ///< 582 frames, 9 scenes by default
  int buffer_capacity = 1;      ///< the paper's K
  /// Camera period P in virtual cycles.  The default retargets the
  /// paper's 320 Mcycle PAL budget to QCIF (99 macroblocks):
  /// 320e6 * 99 / 1620, rounded up to a multiple of 99 so the compact
  /// periodic controller tables apply exactly.
  rt::Cycles frame_period = 19555569;
  ControlMode mode = ControlMode::kControlled;
  rt::QualityLevel constant_quality = 3;  ///< for kConstantQuality
  qos::SmoothnessPolicy smoothness{};     ///< optional smoothness bound
  bool soft_deadlines = false;            ///< av-only constraint
  std::size_t decimation = 1;  ///< consult controller every k actions
  bool use_online_controller = false;  ///< bypass the compiled tables
  /// Learn average execution times online (qos::AdaptiveController;
  /// the paper's Section 4 learning extension).  Requires the default
  /// periodic geometry; ignored when combined with online mode.
  bool use_adaptive_controller = false;
  qos::AdaptiveConfig adaptive{};
  qos::FeedbackConfig feedback{};  ///< for ControlMode::kFeedback
  std::uint64_t seed = 42;     ///< cost-model jitter stream
  enc::EncoderConfig encoder{};
  enc::RateControlConfig rate{};
  platform::CostModelConfig cost{};
};

/// Per-camera-frame outcome.
struct FrameRecord {
  int index = 0;
  bool skipped = false;
  bool scene_cut = false;
  /// The viewer saw stale output for this frame: its encoding was
  /// lost, aborted, or never serviced (fault injection — disjoint
  /// from `skipped`, which is the camera dropping an arrival).
  bool concealed = false;
  bool overrun = false;  ///< injected WCET overrun (inflated demand)
  bool aborted = false;  ///< cut off at the committed budget
  bool lost = false;     ///< encoded output dropped before the decoder
  rt::Cycles encode_cycles = 0;  ///< 0 for skipped frames
  /// encode_cycles split over the four EncodePhase stages.  Attributes
  /// the honest encode work: policer cut-offs and overrun inflation
  /// adjust encode_cycles but never the phase split.
  std::array<rt::Cycles, enc::kNumEncodePhases> phase_cycles{};
  rt::Cycles start_lag = 0;      ///< start - arrival (buffer wait)
  double psnr = 0.0;             ///< vs displayed output
  double ssim = 0.0;             ///< vs displayed output
  std::int64_t bits = 0;
  double mean_quality = 0.0;
  rt::QualityLevel min_quality = 0;
  rt::QualityLevel max_quality = 0;
  int quality_change_sum = 0;  ///< sum |dq| between consecutive MBs
  int deadline_misses = 0;
  int qp = 0;
  int intra_macroblocks = 0;
};

/// Distribution summary of a per-frame quality series (PSNR or SSIM)
/// over every displayed frame, skips included — skipped frames
/// re-display stale output, and their low scores are exactly the
/// quality cost a policy comparison must see.  p5 is the 5th
/// percentile (sorted ascending, index floor((n-1)/20)): the tail
/// quality a viewer actually experiences under churn.
struct QualitySeriesStats {
  double mean = 0.0;
  double p5 = 0.0;
  double min = 0.0;
};

struct PipelineResult {
  std::vector<FrameRecord> frames;
  int total_skips = 0;
  /// Frames the viewer saw stale output for (losses, policer aborts,
  /// blackout drops); disjoint from total_skips.
  int total_concealed = 0;
  int total_deadline_misses = 0;
  double mean_psnr = 0.0;          ///< over all frames incl. skipped
  double mean_psnr_encoded = 0.0;  ///< over encoded frames only
  double mean_ssim = 0.0;          ///< over all frames incl. skipped
  QualitySeriesStats psnr_stats;   ///< mean/p5/min over all frames
  QualitySeriesStats ssim_stats;
  double mean_encode_cycles = 0.0;
  /// Total cycles per EncodePhase over encoded frames — the profiling
  /// breakdown surfaced in reports and trace counter tracks.
  std::array<long long, enc::kNumEncodePhases> phase_cycles{};
  std::int64_t total_bits = 0;
  double achieved_bps = 0.0;
  double mean_quality = 0.0;  ///< over encoded frames
  /// Mean of the paper's optimality metric encode_cycles / budget over
  /// encoded frames.
  double mean_budget_utilization = 0.0;
};

/// One stream's encoding state — video source, encoder, rate control,
/// and QoS controller — factored out of run_pipeline so that a farm of
/// concurrent streams can drive many sessions from its own scheduler.
///
/// The service `budget` the controller tables are paced over defaults
/// to the latency window K * P (the single-stream pipeline, elapsed
/// time measured from frame arrival).  A farm instead reserves a
/// smaller budget B <= K * P and measures elapsed time from *service
/// start* (t0 = 0): the controller then guarantees completion within B
/// of starting, leaving K * P - B of queueing tolerance for the
/// processor — see farm/admission.h.
class StreamSession {
 public:
  /// Builds every component from the config.  `budget` == 0 selects
  /// the default K * P.  A prebuilt `system` (compiled for the same
  /// geometry and budget) may be shared across sessions to avoid
  /// recompiling identical slack tables per stream.
  explicit StreamSession(
      const PipelineConfig& config, rt::Cycles budget = 0,
      std::shared_ptr<const enc::EncoderSystem> system = nullptr);

  /// Encodes camera frame `index`; `t0` is the elapsed time already
  /// consumed when the encoder starts (the buffer wait in the
  /// single-stream pipeline; 0 in the farm, whose tables are paced
  /// from service start).  For a stateless controller a positive
  /// `t0` re-paces this frame's deadlines over the remaining
  /// budget() - t0 and measures elapsed time from the actual start.
  FrameRecord encode(int index, rt::Cycles t0);

  /// Records camera frame `index` as dropped (input buffer full): the
  /// decoder re-displays the previous output, which scores its PSNR.
  FrameRecord skip(int index);

  /// Replaces the compiled system (same geometry, different budget)
  /// and rebuilds the controller over it — the farm's online budget
  /// renegotiation path: subsequent frames are paced over the new
  /// budget.  Requires a controller that carries no state across
  /// frames (table, online, or constant — the same set that may
  /// re-pace); the encoder, rate control, and video state persist.
  void switch_system(std::shared_ptr<const enc::EncoderSystem> system);

  /// Routes quality scoring through a real decode of the emitted
  /// bitstream (enc::decode_frame) against the decoder's own
  /// reference chain, so loss and concealment are measured against
  /// what a viewer displays — stale-reference propagation included.
  /// Off by default: without faults the decode is bit-exact with the
  /// encoder's reconstruction and every score is unchanged, so
  /// fault-free runs skip the decode cost entirely.  While tracking,
  /// encode() keeps the frame's rendered luma until deliver() or lose()
  /// scores it, so each encoded frame is rendered once.
  void track_delivery() { track_delivery_ = true; }
  bool tracking_delivery() const { return track_delivery_; }

  /// Marks the record encode() just produced as delivered.  With
  /// tracking, decodes the encoder's bitstream and re-scores
  /// PSNR/SSIM against the decoded picture; a malformed or
  /// unreferenced decode degrades to concealment instead of crashing.
  FrameRecord deliver(FrameRecord rec);

  /// Marks the record encode() just produced as *not* delivered (a
  /// post-encode loss, a policer abort, or a frame lost in flight to
  /// a processor failure): the viewer re-displays the previous
  /// output, and the decoder keeps predicting from that stale
  /// reference until the next intra re-sync.
  FrameRecord lose(FrameRecord rec);

  /// Records camera frame `index` as never serviced (quarantine, or a
  /// dead / blacked-out processor): zero cycles, stale display.  Like
  /// skip(), but attributed to a fault rather than the camera.
  FrameRecord drop(int index);

  /// Forgets the encoder's temporal reference (processor repair after
  /// a blackout): the next encoded frame is forced intra, which is
  /// also what re-syncs the tracked decoder chain.
  void reset_reference();

  const enc::EncoderSystem& system() const { return *system_; }
  rt::Cycles budget() const { return system_->budget; }
  const media::SyntheticVideo& video() const { return video_; }
  const PipelineConfig& config() const { return config_; }

 private:
  /// Scores `rec` against what the viewer currently displays: the
  /// decoder chain's last output when tracking, the encoder's
  /// reconstruction otherwise (the skip() scoring path).
  void score_against_display(FrameRecord* rec);
  /// The source luma of frame `index`: the copy encode() kept, released
  /// here, when it is that frame's; a fresh render otherwise (a skip or
  /// drop of a frame that was never encoded).
  media::Frame source_luma(int index);
  /// True when the configured controller holds no cross-frame state
  /// and may be rebuilt at will (table / online / constant).
  bool stateless_controller() const;
  /// Recomputes min_repace_budget_ from the current system (see the
  /// constructor comment).
  void recompute_min_repace_budget();
  /// The encoder system re-paced over `remaining` cycles from service
  /// start (compiled on demand, cached by remaining budget).
  const enc::EncoderSystem& repaced_system(rt::Cycles remaining);

  PipelineConfig config_;
  media::SyntheticVideo video_;
  std::shared_ptr<const enc::EncoderSystem> system_;
  enc::FrameEncoder encoder_;
  enc::RateController rate_;
  std::unique_ptr<qos::Controller> controller_;
  /// Re-paced systems keyed by the remaining budget rounded down to a
  /// 64-bucket grid of the session budget (cost-model jitter makes
  /// exact lags unique, so the grid is what makes the cache hit; see
  /// repaced_system).
  std::map<rt::Cycles, std::shared_ptr<const enc::EncoderSystem>> repaced_;
  /// Smallest remaining window that is qmin-WC schedulable; shorter
  /// backlogged frames keep arrival pacing (see the constructor).
  rt::Cycles min_repace_budget_ = 0;
  bool track_delivery_ = false;
  /// The decoder chain's displayed frame (and inter-prediction
  /// reference) when tracking; empty before the first delivery.
  std::optional<media::YuvFrame> displayed_;
  /// With tracking, the luma encode() rendered for frame kept_index_
  /// (-1: none), held only while that frame is in service: deliver()
  /// and lose() score against it and release it.
  int kept_index_ = -1;
  media::Frame kept_luma_;
  /// The background of the last frame this session rendered, shared by
  /// encode() and source_luma() so each render evaluates only the strip
  /// the pan exposed (see media::SyntheticVideo::Carry).
  media::SyntheticVideo::Carry carry_;
};

/// Runs the full system simulation.
PipelineResult run_pipeline(const PipelineConfig& config);

/// Aggregates per-frame records into the summary statistics (the tail
/// of run_pipeline; reused by the farm for per-stream metrics).
/// `budget` is the per-frame budget utilization is measured against.
PipelineResult aggregate_records(std::vector<FrameRecord> frames,
                                 rt::Cycles budget, double frame_rate);

/// Summary line (skips, misses, PSNR, bitrate) for quick inspection.
std::string summarize(const PipelineResult& result);

}  // namespace qosctrl::pipe
