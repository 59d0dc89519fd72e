#include "pipeline/simulation.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <utility>

#include "encoder/decoder.h"
#include "quality/distortion.h"
#include "util/check.h"

namespace qosctrl::pipe {
namespace {

std::unique_ptr<qos::Controller> make_controller(
    const PipelineConfig& config, const enc::EncoderSystem& es) {
  std::unique_ptr<qos::Controller> ctl;
  switch (config.mode) {
    case ControlMode::kControlled:
      if (config.use_online_controller) {
        ctl = std::make_unique<qos::OnlineController>(
            *es.system, config.smoothness, config.soft_deadlines);
      } else if (config.use_adaptive_controller) {
        QC_EXPECT(es.body != nullptr,
                  "adaptive control requires the periodic geometry "
                  "(frame budget divisible by the macroblock count)");
        ctl = std::make_unique<qos::AdaptiveController>(
            *es.body, config.adaptive, config.soft_deadlines);
      } else {
        ctl = std::make_unique<qos::TableController>(
            es.tables, config.smoothness, config.soft_deadlines);
      }
      break;
    case ControlMode::kConstantQuality:
      ctl = std::make_unique<qos::ConstantController>(
          *es.system, config.constant_quality);
      break;
    case ControlMode::kFeedback:
      ctl = std::make_unique<qos::FeedbackController>(*es.system, es.budget,
                                                      config.feedback);
      break;
  }
  if (config.decimation > 1) {
    ctl = std::make_unique<qos::DecimatedController>(std::move(ctl),
                                                     config.decimation);
  }
  return ctl;
}

int macroblock_count(const PipelineConfig& config) {
  return (config.video.width / media::kMacroBlockSize) *
         (config.video.height / media::kMacroBlockSize);
}

enc::FrameEncoder make_encoder(const PipelineConfig& config) {
  // Per-module RNG streams are forked (not split) from the seed so the
  // jitter stream is a pure function of (seed, stream id) — farm
  // sessions built on different worker threads stay bit-identical.
  util::Rng rng(config.seed);
  platform::CostModel cost_model(platform::figure5_cost_table(), config.cost,
                                 rng.fork(0));
  enc::EncoderConfig encoder_config = config.encoder;
  encoder_config.width = config.video.width;  // geometry follows the video
  encoder_config.height = config.video.height;
  return enc::FrameEncoder(encoder_config, std::move(cost_model));
}

}  // namespace

StreamSession::StreamSession(const PipelineConfig& config, rt::Cycles budget,
                             std::shared_ptr<const enc::EncoderSystem> system)
    : config_(config),
      video_(config.video),
      system_(std::move(system)),
      encoder_(make_encoder(config)),
      rate_(config.rate) {
  QC_EXPECT(config.buffer_capacity >= 1, "buffer capacity K must be >= 1");
  QC_EXPECT(config.frame_period > 0, "frame period P must be positive");
  QC_EXPECT(config.decimation >= 1, "decimation must be >= 1");
  if (budget == 0) {
    budget = config.frame_period * config.buffer_capacity;  // K * P
  }
  if (system_ == nullptr) {
    system_ = std::make_shared<const enc::EncoderSystem>(
        enc::build_encoder_system(macroblock_count(config), budget,
                                  platform::figure5_cost_table()));
  }
  QC_EXPECT(system_->macroblocks == macroblock_count(config),
            "shared encoder system geometry must match the video");
  QC_EXPECT(system_->budget == budget,
            "shared encoder system budget must match the session budget");
  controller_ = make_controller(config_, *system_);
  recompute_min_repace_budget();
}

void StreamSession::recompute_min_repace_budget() {
  // Smallest re-pace window that is still worst-case schedulable at
  // qmin: with evenly paced deadlines D(j) = B * (j+1) / m and a
  // uniform per-iteration qmin worst case W, every prefix constraint
  // W * (j+1) <= floor(B * (j+1) / m) reduces to B >= W * m — the
  // total qmin worst case of the unrolled system.  A frame whose
  // backlog leaves less than this keeps arrival pacing (only possible
  // for uncontrolled encoders, which overrun arbitrarily).
  min_repace_budget_ = 0;
  const rt::TimeFunction qmin_wc =
      system_->system->cwc_of(system_->system->qmin());
  for (const rt::Cycles c : qmin_wc.values()) {
    min_repace_budget_ += c;
  }
}

void StreamSession::switch_system(
    std::shared_ptr<const enc::EncoderSystem> system) {
  QC_EXPECT(system != nullptr, "cannot switch to a null encoder system");
  QC_EXPECT(system->macroblocks == macroblock_count(config_),
            "switched encoder system geometry must match the video");
  QC_EXPECT(stateless_controller(),
            "budget switching requires a controller without "
            "cross-frame state (table, online, or constant)");
  system_ = std::move(system);
  controller_ = make_controller(config_, *system_);
  repaced_.clear();  // keyed by the old budget's bucket grid
  recompute_min_repace_budget();
}

bool StreamSession::stateless_controller() const {
  switch (config_.mode) {
    case ControlMode::kControlled:
      // Table and online controllers hold no cross-frame state, so a
      // fresh instance over the re-paced system decides exactly as a
      // long-lived one would.  The adaptive controller learns average
      // times across frames (and needs the periodic geometry), so it
      // keeps arrival pacing.
      return !config_.use_adaptive_controller;
    case ControlMode::kConstantQuality:
      return true;  // stateless; only the miss accounting is affected
    case ControlMode::kFeedback:
      return false;  // the PID carries state across frames
  }
  return false;
}

const enc::EncoderSystem& StreamSession::repaced_system(rt::Cycles remaining) {
  // Cost-model jitter makes every backlog lag unique, so caching by
  // the exact remaining window would never hit.  Quantize the window
  // *down* to one of 64 buckets of the session budget instead:
  // pacing over a slightly smaller window is strictly conservative
  // (deadlines only move earlier, the display deadline still holds),
  // and the cache is bounded by the bucket count.
  const rt::Cycles quantum = std::max<rt::Cycles>(1, budget() / 64);
  remaining = std::max(min_repace_budget_, remaining / quantum * quantum);
  auto it = repaced_.find(remaining);
  if (it == repaced_.end()) {
    it = repaced_
             .emplace(remaining,
                      std::make_shared<const enc::EncoderSystem>(
                          enc::build_encoder_system(
                              macroblock_count(config_), remaining,
                              platform::figure5_cost_table())))
             .first;
  }
  return *it->second;
}

FrameRecord StreamSession::encode(int index, rt::Cycles t0) {
  media::YuvFrame input = video_.frame_yuv(index, &carry_);

  // Late start under backlog: re-pace this frame's deadlines over the
  // remaining window instead of entering arrival-paced tables with
  // already-expired early deadlines.  When the backlog has consumed
  // the whole window (possible only for uncontrolled encoders) there
  // is nothing left to pace over and the arrival-paced path keeps the
  // miss accounting honest.
  const enc::EncoderSystem* sys = system_.get();
  qos::Controller* controller = controller_.get();
  rt::Cycles elapsed = t0;
  std::unique_ptr<qos::Controller> repaced_controller;
  if (t0 > 0 && budget() > t0 &&
      budget() - t0 >= min_repace_budget_ && stateless_controller()) {
    sys = &repaced_system(budget() - t0);
    repaced_controller = make_controller(config_, *sys);
    controller = repaced_controller.get();
    elapsed = 0;
  }

  const enc::FrameStats stats = encoder_.encode_frame(
      input, *controller, *sys->system, rate_.qp(), elapsed);
  rate_.frame_encoded(stats.bits);
  if (track_delivery_) {
    // deliver() or lose() scores this frame next: keep its luma until
    // then instead of rendering it a second time.
    kept_index_ = index;
    kept_luma_ = std::move(input.y);
  }

  FrameRecord rec;
  rec.index = index;
  rec.scene_cut = video_.is_scene_cut(index);
  rec.encode_cycles = stats.encode_cycles;
  rec.phase_cycles = stats.phase_cycles;
  rec.start_lag = t0;
  rec.psnr = stats.psnr;
  rec.ssim = stats.ssim;
  rec.bits = stats.bits;
  rec.mean_quality = stats.mean_quality;
  rec.min_quality = stats.min_quality;
  rec.max_quality = stats.max_quality;
  rec.quality_change_sum = stats.quality_change_sum;
  rec.deadline_misses = stats.deadline_misses;
  rec.qp = stats.qp;
  rec.intra_macroblocks = stats.intra_macroblocks;
  return rec;
}

FrameRecord StreamSession::skip(int index) {
  FrameRecord rec;
  rec.index = index;
  rec.skipped = true;
  rec.scene_cut = video_.is_scene_cut(index);
  rec.qp = rate_.qp();
  // The decoder re-displays the previous output frame.
  score_against_display(&rec);
  rate_.frame_skipped();
  return rec;
}

media::Frame StreamSession::source_luma(int index) {
  if (index != kept_index_) return video_.frame(index, &carry_);
  kept_index_ = -1;
  return std::move(kept_luma_);
}

void StreamSession::score_against_display(FrameRecord* rec) {
  const media::Frame input = source_luma(rec->index);
  if (track_delivery_) {
    if (!displayed_) {
      // Nothing displayed yet: the viewer sees no picture, whatever the
      // record carried from the encoder.
      rec->psnr = 0.0;
      rec->ssim = 0.0;
      return;
    }
    const quality::FrameDistortion d = quality::measure(input, displayed_->y);
    rec->psnr = d.psnr;
    rec->ssim = d.ssim;
    return;
  }
  if (encoder_.has_reference()) {
    const quality::FrameDistortion d =
        quality::measure(input, encoder_.reconstructed().y);
    rec->psnr = d.psnr;
    rec->ssim = d.ssim;
  }
}

FrameRecord StreamSession::deliver(FrameRecord rec) {
  if (!track_delivery_) return rec;
  enc::DecodeResult d = enc::decode_frame(
      encoder_.bitstream(), displayed_ ? &*displayed_ : nullptr);
  if (!d.ok) {
    // Un-decodable at the receiver (e.g. an inter frame whose
    // reference never survived to the decoder): conceal instead of
    // crashing — the viewer keeps the previous picture.
    rec.concealed = true;
    score_against_display(&rec);
    return rec;
  }
  displayed_ = std::move(d.frame);
  // Re-score against the *decoded* picture.  While encoder and
  // decoder references agree the decode is bit-exact with the
  // encoder's reconstruction and the scores are unchanged; after a
  // concealment the decoder predicts from its stale reference, and
  // the drift measured here is the real propagation cost.
  const quality::FrameDistortion dist =
      quality::measure(source_luma(rec.index), displayed_->y);
  rec.psnr = dist.psnr;
  rec.ssim = dist.ssim;
  return rec;
}

FrameRecord StreamSession::lose(FrameRecord rec) {
  rec.concealed = true;
  score_against_display(&rec);
  return rec;
}

FrameRecord StreamSession::drop(int index) {
  FrameRecord rec;
  rec.index = index;
  rec.concealed = true;
  rec.scene_cut = video_.is_scene_cut(index);
  rec.qp = rate_.qp();
  score_against_display(&rec);
  rate_.frame_skipped();
  return rec;
}

void StreamSession::reset_reference() { encoder_.reset_reference(); }

PipelineResult run_pipeline(const PipelineConfig& config) {
  StreamSession session(config);
  const rt::Cycles period = config.frame_period;
  const rt::Cycles budget = session.budget();

  std::vector<FrameRecord> frames(
      static_cast<std::size_t>(config.video.num_frames));
  rt::Cycles free_at = 0;  // when the encoder finishes its current frame
  std::deque<int> buffered;

  auto encode_one = [&](int g) {
    const rt::Cycles arrival = static_cast<rt::Cycles>(g) * period;
    const rt::Cycles start = std::max(free_at, arrival);
    FrameRecord rec = session.encode(g, start - arrival);
    free_at = start + rec.encode_cycles;
    frames[static_cast<std::size_t>(g)] = rec;
  };

  for (int f = 0; f < config.video.num_frames; ++f) {
    const rt::Cycles arrival = static_cast<rt::Cycles>(f) * period;
    // Let the encoder drain whatever it can before this arrival.
    while (!buffered.empty() && free_at <= arrival) {
      const int g = buffered.front();
      buffered.pop_front();
      encode_one(g);
    }
    if (static_cast<int>(buffered.size()) >= config.buffer_capacity) {
      // Input buffer full: the camera drops this frame.
      frames[static_cast<std::size_t>(f)] = session.skip(f);
      continue;
    }
    buffered.push_back(f);
  }
  while (!buffered.empty()) {
    const int g = buffered.front();
    buffered.pop_front();
    encode_one(g);
  }

  return aggregate_records(std::move(frames), budget,
                           config.rate.frame_rate);
}

namespace {

/// mean / 5th percentile / min of a per-frame quality series.
QualitySeriesStats series_stats(std::vector<double> values) {
  QualitySeriesStats s;
  if (values.empty()) return s;
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.p5 = values[(values.size() - 1) / 20];
  return s;
}

}  // namespace

PipelineResult aggregate_records(std::vector<FrameRecord> frames,
                                 rt::Cycles budget, double frame_rate) {
  PipelineResult result;
  result.frames = std::move(frames);

  double psnr_enc = 0.0, cycles = 0.0, quality = 0.0;
  double util = 0.0;
  int encoded = 0;
  std::vector<double> psnr_series, ssim_series;
  psnr_series.reserve(result.frames.size());
  ssim_series.reserve(result.frames.size());
  for (const FrameRecord& rec : result.frames) {
    psnr_series.push_back(rec.psnr);
    ssim_series.push_back(rec.ssim);
    result.total_deadline_misses += rec.deadline_misses;
    if (rec.concealed) ++result.total_concealed;
    if (rec.skipped) {
      ++result.total_skips;
      continue;
    }
    // Concealed frames that never reached the encoder (quarantine and
    // blackout drops) carry no cycles, bits, or quality decisions;
    // like skips, they only contribute their stale-display scores.
    if (rec.concealed && rec.encode_cycles == 0) continue;
    ++encoded;
    psnr_enc += rec.psnr;
    cycles += static_cast<double>(rec.encode_cycles);
    for (std::size_t ph = 0; ph < rec.phase_cycles.size(); ++ph) {
      result.phase_cycles[ph] += static_cast<long long>(rec.phase_cycles[ph]);
    }
    quality += rec.mean_quality;
    result.total_bits += rec.bits;
    util += static_cast<double>(rec.encode_cycles) /
            static_cast<double>(budget);
  }
  result.psnr_stats = series_stats(std::move(psnr_series));
  result.ssim_stats = series_stats(std::move(ssim_series));
  result.mean_psnr = result.psnr_stats.mean;
  result.mean_ssim = result.ssim_stats.mean;
  const int n = static_cast<int>(result.frames.size());
  if (encoded > 0) {
    result.mean_psnr_encoded = psnr_enc / encoded;
    result.mean_encode_cycles = cycles / encoded;
    result.mean_quality = quality / encoded;
    result.mean_budget_utilization = util / encoded;
  }
  const double seconds = frame_rate > 0.0 ? static_cast<double>(n) / frame_rate
                                          : 0.0;
  result.achieved_bps =
      seconds > 0.0 ? static_cast<double>(result.total_bits) / seconds : 0.0;
  return result;
}

std::string summarize(const PipelineResult& result) {
  std::ostringstream os;
  os << "frames=" << result.frames.size()
     << " skips=" << result.total_skips
     << " deadline_misses=" << result.total_deadline_misses
     << " mean_psnr=" << result.mean_psnr
     << " mean_psnr_encoded=" << result.mean_psnr_encoded
     << " mean_ssim=" << result.mean_ssim
     << " psnr_p5=" << result.psnr_stats.p5
     << " mean_encode_Mcycles=" << result.mean_encode_cycles / 1e6
     << " budget_util=" << result.mean_budget_utilization
     << " mean_quality=" << result.mean_quality
     << " kbps=" << result.achieved_bps / 1e3;
  return os.str();
}

}  // namespace qosctrl::pipe
