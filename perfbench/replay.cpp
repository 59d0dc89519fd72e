#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "farm/metrics.h"
#include "farm/shard.h"
#include "obs/trace.h"
#include "quality/distortion.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace qosctrl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Spans

enum class Layer : std::uint8_t {
  kAdmit,
  kRelease,
  kLadder,
  kSegment,  ///< one stream segment's data-plane work (parent span)
  kSessionSetup,
  kSwitch,
  kReset,
  kSynth,  ///< sibling: SyntheticVideo synthesis
  kScore,  ///< sibling: quality::measure
  kEncode,
  kDeliver,
  kLose,
  kSkip,
  kDrop,
  kNone,
};
constexpr int kNumLayers = static_cast<int>(Layer::kNone);
constexpr const char* kLayerName[kNumLayers] = {
    "admit",  "release", "certified_ladder", "segment", "session_setup",
    "switch_system", "reset_reference", "synth", "score", "encode",
    "deliver", "lose", "skip", "drop"};

struct Span {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::int32_t proc;
  Layer layer;
  Layer shadow;  ///< for sibling spans: the session call they mirror
};

/// In-memory span recorder; with `on` false it records nothing and reads
/// no clock, which is the untraced run of the same work.
class Tracer {
 public:
  Tracer(const char* pass, bool on) : pass_(pass), on_(on) {}

  template <class F>
  auto time(Layer layer, int parent, int proc, F&& f,
            Layer shadow = Layer::kNone) {
    const std::int64_t t0 = on_ ? now_ns() : 0;
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      if (on_) spans_.push_back({t0, now_ns(), parent, proc, layer, shadow});
    } else {
      auto out = f();
      if (on_) spans_.push_back({t0, now_ns(), parent, proc, layer, shadow});
      return out;
    }
  }

  /// Opens a parent span; close it with end().
  int begin(Layer layer, int proc) {
    if (!on_) return -1;
    spans_.push_back({now_ns(), 0, -1, proc, layer, Layer::kNone});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const char* pass() const { return pass_; }

  /// Total seconds of `layer` spans (optionally only siblings of `shadow`).
  double busy(Layer layer, Layer shadow = Layer::kNone) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.layer == layer && (shadow == Layer::kNone || s.shadow == shadow)) {
        ns += s.end_ns - s.start_ns;
      }
    }
    return static_cast<double>(ns) * 1e-9;
  }

  std::vector<double> durations_us(Layer layer) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.layer == layer) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
    }
    return out;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  const char* pass_;
  bool on_;
  std::vector<Span> spans_;
};

/// Nearest-rank quantile (index floor(q * (n - 1)) of the sorted values).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

/// The highest of p99.9 / p99 / p90 with at least ten samples beyond it.
double tail_quantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) origin = std::min(origin, s.start_ns);
  }
  for (std::size_t p = 0; p < tracers.size(); ++p) {
    for (const Span& s : tracers[p]->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":%zu,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"parent\":%d,\"mirrors\":\"%s\"}}",
                   first ? "" : ",", kLayerName[static_cast<int>(s.layer)],
                   tracers[p]->pass(), p, s.proc,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   s.parent,
                   s.shadow == Layer::kNone
                       ? ""
                       : kLayerName[static_cast<int>(s.shadow)]);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Control plane

struct ControlReplay {
  double wall_s = 0.0;
  int joins = 0;
  int rejected = 0;
  int placements_matched = 0;
  std::size_t tables_compiled = 0;
  std::vector<std::vector<farm::CertifiedRung>> ladders;
};

/// Replays run_farm's control-plane loop: joins in (time, id) order,
/// leaves and permanent failures drained before each join (leaves first
/// at equal instants), failover re-admissions, then the policer ladders.
ControlReplay replay_control(const farm::FarmScenario& sc,
                             const farm::FarmConfig& cfg,
                             const farm::FarmResult& r,
                             farm::TableCache* tables, Tracer* tr) {
  ControlReplay out;
  const auto t0 = Clock::now();
  farm::ShardPlaneConfig pc;
  pc.shards = cfg.shards;
  pc.probe_shards = cfg.probe_shards;
  pc.rebalance_watermark = cfg.rebalance_watermark;
  farm::ShardedControlPlane plane(cfg.num_processors, pc, cfg.admission,
                                  tables, sc.sched);

  std::vector<std::size_t> order(sc.streams.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(sc.streams[a].join_time, sc.streams[a].id) <
           std::tie(sc.streams[b].join_time, sc.streams[b].id);
  });
  std::map<int, std::size_t> index_of;
  for (std::size_t i = 0; i < sc.streams.size(); ++i) {
    index_of[sc.streams[i].id] = i;
  }

  using Leave = std::pair<rt::Cycles, int>;
  std::priority_queue<Leave, std::vector<Leave>, std::greater<Leave>> leaves;
  std::vector<std::size_t> perm;
  for (std::size_t k = 0; k < sc.faults.failures.size(); ++k) {
    if (sc.faults.failures[k].permanent()) perm.push_back(k);
  }
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    const farm::FailureEvent& ea = sc.faults.failures[a];
    const farm::FailureEvent& eb = sc.faults.failures[b];
    return std::tie(ea.time, ea.processor, a) <
           std::tie(eb.time, eb.processor, b);
  });
  std::size_t next_perm = 0;
  constexpr rt::Cycles kNever = std::numeric_limits<rt::Cycles>::max();

  auto release = [&](int id, rt::Cycles t) {
    tr->time(Layer::kRelease, -1, -1, [&] { plane.release(id, t); });
    plane.take_renegotiations();
  };
  auto admit = [&](const farm::StreamSpec& spec) {
    const farm::Placement pl =
        tr->time(Layer::kAdmit, -1, -1, [&] { return plane.admit(spec); });
    plane.take_renegotiations();
    return pl;
  };
  auto handle_failure = [&](const farm::FailureEvent& ev) {
    if (plane.processor_failed(ev.processor)) return;
    plane.fail_processor(ev.processor);
    for (const int id : plane.resident_stream_ids(ev.processor)) {
      const farm::StreamSpec& spec = sc.streams[index_of.at(id)];
      release(id, ev.time);
      const rt::Cycles period = farm::period_of(spec);
      const rt::Cycles elapsed = ev.time - spec.join_time;
      const int ff = elapsed >= 0 ? static_cast<int>(elapsed / period) + 1 : 0;
      if (ff >= spec.num_frames) continue;
      farm::StreamSpec resume = spec;
      resume.join_time = spec.join_time + static_cast<rt::Cycles>(ff) * period;
      resume.num_frames = spec.num_frames - ff;
      admit(resume);
    }
  };
  auto drain_until = [&](rt::Cycles limit) {
    while (true) {
      const rt::Cycles t_leave = leaves.empty() ? kNever : leaves.top().first;
      const rt::Cycles t_fail = next_perm < perm.size()
                                    ? sc.faults.failures[perm[next_perm]].time
                                    : kNever;
      if (t_leave == kNever && t_fail == kNever) break;
      if (t_leave > limit && t_fail > limit) break;
      if (t_leave <= t_fail) {
        const Leave l = leaves.top();
        leaves.pop();
        release(l.second, l.first);
      } else {
        handle_failure(sc.faults.failures[perm[next_perm++]]);
      }
    }
  };

  for (const std::size_t i : order) {
    const farm::StreamSpec& spec = sc.streams[i];
    drain_until(spec.join_time);
    const farm::Placement pl = admit(spec);
    ++out.joins;
    const farm::Placement& want = r.streams[i].placement;
    if (pl.admitted == want.admitted && pl.processor == want.processor) {
      ++out.placements_matched;
    }
    if (pl.admitted) {
      leaves.emplace(farm::leave_time_of(spec), spec.id);
    } else {
      ++out.rejected;
    }
  }
  drain_until(kNever);

  out.ladders.resize(sc.streams.size());
  if (sc.faults.overrun.enabled() &&
      sc.faults.overrun.policy != farm::OverrunPolicy::kAbortConceal) {
    for (std::size_t i = 0; i < r.streams.size(); ++i) {
      const farm::StreamOutcome& so = r.streams[i];
      if (!so.placement.admitted || so.placement.split ||
          so.spec.mode != pipe::ControlMode::kControlled) {
        continue;
      }
      out.ladders[i] = tr->time(Layer::kLadder, -1, -1, [&] {
        return plane.certified_ladder(farm::macroblocks_of(so.spec),
                                      farm::latency_of(so.spec),
                                      farm::period_of(so.spec));
      });
    }
  }
  out.tables_compiled = tables->compiled_systems();
  out.wall_s = seconds_since(t0);
  return out;
}

// ---------------------------------------------------------------------------
// Data plane

/// The session config run_farm expands a StreamSpec to (seeds forked from
/// the farm seed by stream id); mirrored here because the simulator keeps
/// it private.
pipe::PipelineConfig session_config(const farm::StreamSpec& spec,
                                    std::uint64_t farm_seed,
                                    double nominal_fps) {
  pipe::PipelineConfig cfg;
  cfg.video.width = spec.width;
  cfg.video.height = spec.height;
  cfg.video.num_frames = spec.num_frames;
  cfg.video.num_scenes = spec.num_scenes;
  cfg.frame_period = farm::period_of(spec);
  cfg.buffer_capacity = spec.buffer_capacity;
  cfg.mode = spec.mode;
  cfg.constant_quality = spec.constant_quality;
  cfg.rate.frame_rate =
      nominal_fps *
      static_cast<double>(
          farm::default_frame_period(farm::macroblocks_of(spec))) /
      static_cast<double>(farm::period_of(spec));
  util::Rng derive =
      util::Rng(farm_seed).fork(static_cast<std::uint64_t>(spec.id));
  cfg.seed = spec.seed != 0 ? spec.seed : derive.next_u64();
  cfg.video.seed = derive.next_u64();
  return cfg;
}

struct Outage {
  rt::Cycles start;
  rt::Cycles end;  ///< max() when permanent
  bool permanent;
};

struct DataReplay {
  double wall_s = 0.0;      ///< the traced pass
  double untraced_s = 0.0;  ///< the same work with spans off
  long long sessions = 0;
  long long encodes = 0;
  long long matches = 0;
  long long decodes = 0;
  long long in_sync = 0;
  double encode_pixels = 0.0;  ///< luma pixels encoded
  double synth_pixels = 0.0;   ///< luma pixels of sibling syntheses
};

/// A frame the simulator never handed to the encoder: dropped by an
/// outage or quarantine (concealed with no bits).  Encoded frames always
/// carry a header.
bool never_encoded(const pipe::FrameRecord& rec) {
  return !rec.skipped && rec.concealed && rec.bits == 0;
}

class DataReplayer {
 public:
  DataReplayer(const farm::FarmScenario& sc, const farm::FarmConfig& cfg,
               const std::vector<std::vector<farm::CertifiedRung>>& ladders,
               Tracer* tr)
      : sc_(sc), cfg_(cfg), ladders_(ladders), tr_(tr),
        outages_(static_cast<std::size_t>(cfg.num_processors)) {
    for (const farm::FailureEvent& ev : sc.faults.failures) {
      outages_[static_cast<std::size_t>(ev.processor)].push_back(
          {ev.time,
           ev.permanent() ? std::numeric_limits<rt::Cycles>::max()
                          : ev.time + ev.repair,
           ev.permanent()});
    }
  }

  /// Replays every admitted stream segment twice, traced and untraced,
  /// alternating which pass goes first so that drift cancels in the
  /// difference (the tracing overhead).
  DataReplay run(const farm::FarmResult& r) {
    Tracer* const traced = tr_;
    Tracer untraced("data-untraced", false);
    DataReplay stats, discard;
    std::size_t k = 0;
    for (std::size_t i = 0; i < r.streams.size(); ++i) {
      const farm::StreamOutcome& so = r.streams[i];
      if (!so.placement.admitted) continue;
      const std::size_t nseg = 1 + so.failover.size();
      for (std::size_t s = 0; s < nseg; ++s) {
        const farm::Placement& pl =
            s == 0 ? so.placement : so.failover[s - 1].placement;
        const std::vector<farm::BudgetEpoch>& epochs =
            s == 0 ? so.epochs : so.failover[s - 1].epochs;
        const int first = s == 0 ? 0 : so.failover[s - 1].first_frame;
        const int end =
            s + 1 < nseg ? so.failover[s].first_frame : so.spec.num_frames;
        for (int pass = 0; pass < 2; ++pass) {
          const bool on = (pass == 0) == (k % 2 == 0);
          tr_ = on ? traced : &untraced;
          out_ = on ? &stats : &discard;
          const auto t0 = Clock::now();
          segment(so, i, pl.processor, epochs, first, end);
          (on ? stats.wall_s : stats.untraced_s) += seconds_since(t0);
        }
        ++k;
      }
    }
    tr_ = traced;
    return stats;
  }

 private:
  /// Times session call `layer` on frame `f` together with sibling spans
  /// of the synthesis and scoring it does inside: the luma frame, or the
  /// full 4:2:0 frame for an encode.  The siblings run before the call on
  /// even frames and after it on odd ones; whichever runs second finds
  /// warm caches, and alternating cancels that bias.
  template <class Call>
  pipe::FrameRecord with_siblings(Layer layer, pipe::StreamSession& session,
                                  int f, int parent, int proc, Call&& call) {
    auto siblings = [&] {
      media::Frame y;
      if (layer == Layer::kEncode) {
        y = tr_->time(
                   Layer::kSynth, parent, proc,
                   [&] { return session.video().frame_yuv(f); }, layer)
                .y;
      } else {
        y = tr_->time(
            Layer::kSynth, parent, proc,
            [&] { return session.video().frame(f); }, layer);
      }
      out_->synth_pixels += static_cast<double>(y.width()) * y.height();
      tr_->time(
          Layer::kScore, parent, proc, [&] { return quality::measure(y, y); },
          layer);
    };
    if (f % 2 == 0) siblings();
    const pipe::FrameRecord out = tr_->time(layer, parent, proc, call);
    if (f % 2 != 0) siblings();
    return out;
  }

  /// True when `rec` was cut off in service by an outage on `proc` (the
  /// simulator then charges the cycles consumed up to the outage).
  bool cut_by_outage(const pipe::FrameRecord& rec, rt::Cycles dispatch,
                     int proc) const {
    if (!rec.concealed || rec.lost) return false;
    for (const Outage& o : outages_[static_cast<std::size_t>(proc)]) {
      if (dispatch <= o.start && dispatch + rec.encode_cycles == o.start) {
        return true;
      }
    }
    return false;
  }

  void segment(const farm::StreamOutcome& so, std::size_t stream, int proc,
               const std::vector<farm::BudgetEpoch>& epochs, int first,
               int end) {
    const std::vector<pipe::FrameRecord>& frames = so.result.frames;
    const rt::Cycles period = farm::period_of(so.spec);
    auto arrival = [&](int f) {
      return so.spec.join_time + static_cast<rt::Cycles>(f) * period;
    };
    const int seg = tr_->begin(Layer::kSegment, proc);
    auto session = tr_->time(Layer::kSessionSetup, seg, proc, [&] {
      auto s = std::make_unique<pipe::StreamSession>(
          session_config(so.spec, cfg_.seed, cfg_.frame_rate),
          epochs.front().table_budget, epochs.front().system);
      if (sc_.faults.any()) s->track_delivery();
      return s;
    });
    ++out_->sessions;

    // Session calls in simulated-time order: a camera skip happens at
    // arrival, before the dispatch of any earlier frame still queued at
    // that instant; encodes happen at dispatch; drops keep frame order.
    struct Call {
      rt::Cycles time;
      int phase;
      int frame;
    };
    std::vector<Call> calls;
    rt::Cycles last = 0;
    for (int f = first; f < end; ++f) {
      const pipe::FrameRecord& rec = frames[static_cast<std::size_t>(f)];
      Call c{last, 1, f};
      if (rec.skipped) {
        c = {arrival(f), 0, f};
      } else if (!never_encoded(rec)) {
        c.time = arrival(f) + rec.start_lag;
      }
      last = std::max(last, c.time);
      calls.push_back(c);
    }
    std::stable_sort(calls.begin(), calls.end(),
                     [](const Call& a, const Call& b) {
                       return std::tie(a.time, a.phase) <
                              std::tie(b.time, b.phase);
                     });

    const std::vector<farm::CertifiedRung>& ladder = ladders_[stream];
    const std::vector<Outage>& outages =
        outages_[static_cast<std::size_t>(proc)];
    std::vector<bool> repaired(outages.size(), false);
    std::size_t epoch_idx = 0;
    int force_rung = -1;
    const bool tracking = session->tracking_delivery();

    for (const Call& c : calls) {
      const int f = c.frame;
      const pipe::FrameRecord& rec = frames[static_cast<std::size_t>(f)];
      if (rec.skipped) {
        with_siblings(Layer::kSkip, *session, f, seg, proc,
                      [&] { return session->skip(f); });
        continue;
      }
      if (never_encoded(rec)) {
        with_siblings(Layer::kDrop, *session, f, seg, proc,
                      [&] { return session->drop(f); });
        continue;
      }
      // A transient outage's repair resets every session on the
      // processor before its next dispatch.
      for (std::size_t k = 0; k < outages.size(); ++k) {
        if (!outages[k].permanent && !repaired[k] && outages[k].end <= c.time) {
          repaired[k] = true;
          tr_->time(Layer::kReset, seg, proc,
                    [&] { session->reset_reference(); });
        }
      }
      // The tables this frame is paced over: its budget epoch, capped by
      // a policer-forced ladder rung.
      while (epoch_idx + 1 < epochs.size() &&
             epochs[epoch_idx + 1].from_time <= arrival(f)) {
        ++epoch_idx;
      }
      rt::Cycles budget = epochs[epoch_idx].table_budget;
      const enc::EncoderSystem* sys = epochs[epoch_idx].system.get();
      std::shared_ptr<const enc::EncoderSystem> next =
          epochs[epoch_idx].system;
      if (force_rung >= 0 && !ladder.empty()) {
        const farm::CertifiedRung& rung =
            ladder[static_cast<std::size_t>(force_rung)];
        if (rung.table_budget < budget) {
          budget = rung.table_budget;
          sys = rung.system.get();
          next = rung.system;
        }
      }
      if (sys != nullptr && &session->system() != sys) {
        tr_->time(Layer::kSwitch, seg, proc,
                  [&] { session->switch_system(next); });
      }

      const pipe::FrameRecord rep =
          with_siblings(Layer::kEncode, *session, f, seg, proc,
                        [&] { return session->encode(f, 0); });
      ++out_->encodes;
      out_->encode_pixels += static_cast<double>(so.spec.width) * so.spec.height;
      // The policer and an outage cut rewrite encode_cycles; the phase
      // split always keeps the honest encode cost.
      const bool phases = rep.phase_cycles == rec.phase_cycles;
      if (rep.bits == rec.bits && phases &&
          (rep.encode_cycles == rec.encode_cycles || rec.overrun ||
           rec.concealed)) {
        ++out_->matches;
      }

      if (cut_by_outage(rec, c.time, proc) || rec.aborted || rec.lost) {
        with_siblings(Layer::kLose, *session, f, seg, proc,
                      [&] { return session->lose(rep); });
        if (rec.aborted && !cut_by_outage(rec, c.time, proc) &&
            sc_.faults.overrun.policy == farm::OverrunPolicy::kDowngrade) {
          for (std::size_t k = 0; k < ladder.size(); ++k) {
            if (ladder[k].table_budget < budget) {
              force_rung = static_cast<int>(k);
              break;
            }
          }
        }
        continue;
      }
      auto deliver = [&] { return session->deliver(rep); };
      const pipe::FrameRecord shown =
          tracking ? with_siblings(Layer::kDeliver, *session, f, seg, proc,
                                   deliver)
                   : tr_->time(Layer::kDeliver, seg, proc, deliver);
      if (tracking) {
        ++out_->decodes;
        if (!shown.concealed && shown.psnr == rep.psnr &&
            shown.ssim == rep.ssim) {
          ++out_->in_sync;
        }
      }
    }
    tr_->end(seg);
  }

  const farm::FarmScenario& sc_;
  const farm::FarmConfig& cfg_;
  const std::vector<std::vector<farm::CertifiedRung>>& ladders_;
  Tracer* tr_;
  std::vector<std::vector<Outage>> outages_;
  DataReplay* out_ = nullptr;
};

/// The layer table: busy time per replayed layer, largest first, as a
/// share of all replayed layers (measured in one pass, so robust to host
/// drift) and of the 1-worker run_farm (a separate run); then the sinks
/// (a difference of two runs), the unattributed remainder, and the
/// report writers, which run outside run_farm.
std::string format_table(const std::string& workload,
                         std::vector<std::pair<std::string, double>> rows,
                         double run_1w_s, double sinks_s,
                         double unattributed_s, double overhead_s,
                         double match_ratio,
                         const std::vector<std::pair<std::string, double>>&
                             outside) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  double replayed = 0.0;
  for (const auto& row : rows) replayed += row.second;
  auto pct = [](double part, double whole) {
    return whole > 0 ? 100.0 * part / whole : 0.0;
  };
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line,
                "layer table: %s (replayed %.3f s, 1-worker run_farm %.3f s)\n"
                "  %-28s %11s %9s %9s\n",
                workload.c_str(), replayed, run_1w_s, "layer", "busy",
                "replayed", "run_farm");
  os << line;
  for (const auto& [name, s] : rows) {
    std::snprintf(line, sizeof line, "  %-28s %9.3f s %8.1f%% %8.1f%%\n",
                  name.c_str(), s, pct(s, replayed), pct(s, run_1w_s));
    os << line;
  }
  for (const auto& [name, s] : {std::pair{"obs.sinks (on - off)", sinks_s},
                                {"farm.sim.unattributed", unattributed_s}}) {
    std::snprintf(line, sizeof line, "  %-28s %9.3f s %9s %8.1f%%\n", name, s,
                  "", pct(s, run_1w_s));
    os << line;
  }
  for (const auto& [name, s] : outside) {
    std::snprintf(line, sizeof line, "  %-28s %9.3f s  (outside run_farm)\n",
                  name.c_str(), s);
    os << line;
  }
  std::snprintf(line, sizeof line,
                "  trace.overhead_s %.3f s, encoder.encode.replay_match_ratio "
                "%.4f\n",
                overhead_s, match_ratio);
  os << line;
  return os.str();
}

}  // namespace

Profile profile_workload(const Workload& w, std::uint64_t seed, int workers,
                         const std::string& spans_path) {
  Profile p;
  auto add = [&](const char* name, double value, const char* unit) {
    p.metrics.push_back({name, value, unit});
  };

  std::vector<double> setup;
  JobInput in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    in = set_up(w, seed, workers);
    setup.push_back(seconds_since(t0));
  }

  // The timed configuration, then the 1-worker reference.
  auto t0 = Clock::now();
  const farm::FarmResult r = farm::run_farm(in.scenario, in.config);
  const double run_nw_s = seconds_since(t0);
  p.error = check_shape(w, r);

  Reports reports;
  double json_s = 0.0, csv_s = 0.0, export_s = 0.0;
  t0 = Clock::now();
  reports.json = farm::to_json(r);
  if (w.reports) {
    json_s = seconds_since(t0);
    t0 = Clock::now();
    reports.csv = farm::to_csv(r);
    csv_s = seconds_since(t0);
    t0 = Clock::now();
    reports.trace = obs::export_chrome_trace(r.trace, w.procs);
    export_s = seconds_since(t0);
  }
  p.digest = report_digest(reports);

  // The 1-worker reference, then (if the workload has sinks) the same
  // run with every sink off.
  farm::FarmConfig one = in.config;
  one.workers = 1;
  t0 = Clock::now();
  const farm::FarmResult r1 = farm::run_farm(in.scenario, one);
  const double run_1w_s = seconds_since(t0);
  if (p.error.empty() && report_digest(render_reports(w, r1)) != p.digest) {
    p.error = "1-worker report digest differs";
  }
  double sinks_s = 0.0;
  if (in.config.trace || in.config.ts_window > 0 || !in.config.slos.empty()) {
    t0 = Clock::now();
    farm::run_farm(in.scenario, sinks_off(one));
    sinks_s = run_1w_s - seconds_since(t0);
  }

  // Control plane: cold cache, then warm.
  farm::TableCache tables(platform::figure5_cost_table());
  Tracer ctl_cold("control-cold", true), ctl_warm("control-warm", true);
  const ControlReplay cold =
      replay_control(in.scenario, in.config, r, &tables, &ctl_cold);
  const ControlReplay warm =
      replay_control(in.scenario, in.config, r, &tables, &ctl_warm);

  Tracer data("data", true);
  const DataReplay dr =
      DataReplayer(in.scenario, in.config, cold.ladders, &data).run(r);
  write_spans(spans_path, {&ctl_cold, &ctl_warm, &data});

  // Layer busy times (self times: sibling synthesis and scoring are
  // subtracted from the session call they mirror).
  const double synth_s = data.busy(Layer::kSynth);
  const double score_s = data.busy(Layer::kScore);
  auto self = [&](Layer call) {
    return data.busy(call) - data.busy(Layer::kSynth, call) -
           data.busy(Layer::kScore, call);
  };
  const bool tracking = in.scenario.faults.any();
  const double encode_s = self(Layer::kEncode);
  const double decode_s = tracking ? self(Layer::kDeliver) : 0.0;
  const double session_s =
      data.busy(Layer::kSessionSetup) + data.busy(Layer::kSwitch) +
      data.busy(Layer::kReset) + self(Layer::kLose) + self(Layer::kSkip) +
      self(Layer::kDrop) + (tracking ? 0.0 : data.busy(Layer::kDeliver));
  const double control_s = warm.wall_s;
  const double tables_s = cold.wall_s - warm.wall_s;
  const double replayed = control_s + tables_s + session_s + synth_s +
                          encode_s + score_s + decode_s + sinks_s;
  const double unattributed_s = run_1w_s - replayed;
  const double overhead_s = dr.wall_s - dr.untraced_s;
  const double match_ratio =
      dr.encodes > 0 ? static_cast<double>(dr.matches) / dr.encodes : 0.0;

  // Largest per-processor share of replayed data-plane busy time.
  std::vector<double> per_proc(static_cast<std::size_t>(w.procs), 0.0);
  double total = 0.0;
  for (const Span& s : data.spans()) {
    if (s.layer != Layer::kSegment) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    per_proc[static_cast<std::size_t>(s.proc)] += d;
    total += d;
  }
  const double max_share =
      total > 0 ? *std::max_element(per_proc.begin(), per_proc.end()) / total
                : 0.0;

  const std::vector<double> admit_us = ctl_warm.durations_us(Layer::kAdmit);
  const double tail_q = tail_quantile(admit_us.size());
  const std::size_t synth_calls = data.durations_us(Layer::kSynth).size();

  add("farm.presets.compile_s", quantile(setup, 0.5), "s");
  add("farm.control.joins", warm.joins, "count");
  add("farm.control.busy_s", control_s, "s");
  add("farm.control.admit_us_p50", quantile(admit_us, 0.5), "us");
  add("farm.control.admit_us_ptail", quantile(admit_us, tail_q), "us");
  add("farm.control.release_us_p50",
      quantile(ctl_warm.durations_us(Layer::kRelease), 0.5), "us");
  add("farm.control.reject_ratio",
      warm.joins > 0 ? static_cast<double>(warm.rejected) / warm.joins : 0.0,
      "ratio");
  add("farm.control.tables_compiled", static_cast<double>(cold.tables_compiled),
      "count");
  add("farm.control.replay_match_ratio",
      warm.joins > 0 ? static_cast<double>(warm.placements_matched) / warm.joins
                     : 0.0,
      "ratio");
  add("encoder.tables.build_s", tables_s, "s");
  add("pipeline.session.count", static_cast<double>(dr.sessions), "count");
  add("pipeline.session.setup_us_p50",
      quantile(data.durations_us(Layer::kSessionSetup), 0.5), "us");
  add("pipeline.session.busy_s", session_s, "s");
  add("media.synth.calls", static_cast<double>(synth_calls), "count");
  add("media.synth.busy_s", synth_s, "s");
  add("media.synth.ns_per_pixel",
      dr.synth_pixels > 0 ? synth_s * 1e9 / dr.synth_pixels : 0.0, "ns");
  add("encoder.encode.calls", static_cast<double>(dr.encodes), "count");
  add("encoder.encode.busy_s", encode_s, "s");
  add("encoder.encode.ns_per_pixel",
      dr.encode_pixels > 0 ? encode_s * 1e9 / dr.encode_pixels : 0.0, "ns");
  add("encoder.encode.replay_match_ratio", match_ratio, "ratio");
  add("quality.score.calls",
      static_cast<double>(data.durations_us(Layer::kScore).size()), "count");
  add("quality.score.busy_s", score_s, "s");
  add("encoder.decode.calls", static_cast<double>(dr.decodes), "count");
  add("encoder.decode.busy_s", decode_s, "s");
  add("encoder.decode.in_sync_ratio",
      dr.decodes > 0 ? static_cast<double>(dr.in_sync) / dr.decodes : 0.0,
      "ratio");
  add("farm.pool.run_1w_s", run_1w_s, "s");
  add("farm.pool.speedup", run_nw_s > 0 ? run_1w_s / run_nw_s : 0.0, "x");
  add("farm.pool.max_proc_share", max_share, "ratio");
  add("farm.sim.unattributed_s", unattributed_s, "s");
  add("obs.sinks_s", sinks_s, "s");
  add("obs.trace_events", static_cast<double>(r.trace.size()), "count");
  add("obs.trace_export_s", export_s, "s");
  add("obs.trace_bytes", static_cast<double>(reports.trace.size()), "bytes");
  add("farm.report.json_s", json_s, "s");
  add("farm.report.json_bytes",
      w.reports ? static_cast<double>(reports.json.size()) : 0.0, "bytes");
  add("farm.report.csv_s", csv_s, "s");
  add("trace.overhead_s", overhead_s, "s");

  p.table = format_table(
      w.name,
      {{"farm.control", control_s},
       {"encoder.tables", tables_s},
       {"pipeline.session", session_s},
       {"media.synth", synth_s},
       {"encoder.encode", encode_s},
       {"quality.score", score_s},
       {"encoder.decode", decode_s}},
      run_1w_s, sinks_s, unattributed_s, overhead_s, match_ratio,
      {{"farm.report.json", json_s},
       {"farm.report.csv", csv_s},
       {"obs.trace_export", export_s}});
  return p;
}

}  // namespace perfbench
