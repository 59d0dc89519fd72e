#include "farm/shard.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace qosctrl::farm {

ShardedControlPlane::ShardedControlPlane(int num_processors,
                                         ShardPlaneConfig plane,
                                         AdmissionConfig admission,
                                         TableCache* tables,
                                         SchedulingSpec sched)
    : config_(std::move(admission)),
      sched_(sched),
      policy_(sched.policy),
      tables_(tables),
      probe_shards_(plane.probe_shards),
      watermark_(plane.rebalance_watermark) {
  QC_EXPECT(num_processors >= 1, "farm needs at least one processor");
  QC_EXPECT(tables_ != nullptr, "admission needs a table cache");
  QC_EXPECT(config_.utilization_cap > 0.0 && config_.utilization_cap <= 1.0,
            "utilization cap must be in (0, 1]");
  QC_EXPECT(config_.max_stream_share > 0.0 && config_.max_stream_share <= 1.0,
            "max stream share must be in (0, 1]");
  for (const std::vector<double>* ladder :
       {&config_.budget_fractions, &config_.min_budget_multiples}) {
    for (const double x : *ladder) {
      QC_EXPECT(std::isfinite(x) && x > 0.0,
                "budget ladder entries must be finite and positive");
    }
  }
  QC_EXPECT(plane.shards >= 1 && plane.shards <= num_processors,
            "shard count must be in [1, num_processors]");
  QC_EXPECT(plane.probe_shards >= 0, "probe_shards must be >= 0");
  QC_EXPECT(plane.rebalance_watermark >= 0.0 &&
                plane.rebalance_watermark < 1.0,
            "rebalance watermark must be in [0, 1)");
  procs_.resize(static_cast<std::size_t>(num_processors));
  shards_.resize(static_cast<std::size_t>(plane.shards));
  floors_.resize(static_cast<std::size_t>(plane.shards));
  for (int s = 0; s < plane.shards; ++s) {
    // Contiguous near-even slices: shard s owns global processors
    // [s*M/S, (s+1)*M/S).
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.base = s * num_processors / plane.shards;
    sh.size = (s + 1) * num_processors / plane.shards - sh.base;
    recompute_floor(s);
  }
}

void ShardedControlPlane::recompute_floor(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  double& floor = floors_[static_cast<std::size_t>(s)];
  sh.floor_proc = sh.hot_proc = -1;
  sh.hot_util = 0.0;
  floor = kNoSurvivor;
  for (int p = sh.base; p < sh.base + sh.size; ++p) {
    Processor& pr = procs_[static_cast<std::size_t>(p)];
    if (pr.failed) continue;
    pr.peak = std::max(pr.peak, pr.util);
    // Strict comparisons: ties keep the lowest index.
    if (pr.util < floor) {
      sh.floor_proc = p;
      floor = pr.util;
    }
    if (sh.hot_proc < 0 || pr.util > sh.hot_util) {
      sh.hot_proc = p;
      sh.hot_util = pr.util;
    }
  }
}

void ShardedControlPlane::route(std::size_t k) {
  route_.clear();
  // Only a floor strictly below `cut` — the k-th kept so far, or
  // kNoSurvivor until k are kept — enters, so shards without survivors
  // never do and, shards ascending, ties keep the lowest index.
  double cut = kNoSurvivor;
  for (int s = 0; s < num_shards(); ++s) {
    const double f = floors_[static_cast<std::size_t>(s)];
    if (!(f < cut)) continue;
    auto at = route_.end();
    while (at != route_.begin() &&
           f < floors_[static_cast<std::size_t>(*(at - 1))]) {
      --at;
    }
    route_.insert(at, s);
    if (route_.size() > k) route_.pop_back();
    if (route_.size() == k) {
      cut = floors_[static_cast<std::size_t>(route_.back())];
    }
  }
}

int ShardedControlPlane::shard_of(int processor) const {
  QC_EXPECT(processor >= 0 && processor < num_processors(),
            "processor index out of range");
  // Bases ascend; the owning shard is the last base <= processor.
  const auto it = std::upper_bound(
      shards_.begin(), shards_.end(), processor,
      [](int p, const Shard& sh) { return p < sh.base; });
  return static_cast<int>(it - shards_.begin()) - 1;
}

void ShardedControlPlane::fail_processor(int processor) {
  procs_.at(static_cast<std::size_t>(processor)).failed = true;
  recompute_floor(shard_of(processor));
}

double ShardedControlPlane::shard_peak_committed_utilization(int s) const {
  double peak = 0.0;
  for (int p = shard_base(s); p < shard_base(s) + shard_size(s); ++p) {
    peak = std::max(peak, procs_[static_cast<std::size_t>(p)].peak);
  }
  return peak;
}

void ShardedControlPlane::land(const StreamSpec& spec, int s, bool probed) {
  residents_[spec.id].spec = spec;
  ShardStats& st = shards_[static_cast<std::size_t>(s)].stats;
  ++st.admitted;
  if (probed) ++st.probe_admits;
  recompute_floor(s);
}

Placement ShardedControlPlane::admit(const StreamSpec& spec) {
  // One scan of the cached floors: the preferred shard first, then up
  // to probe_shards more.  Each shard's floor already ties to the
  // lowest index, so the first shard's floor processor is what a scan
  // of every processor would find (0 when every processor failed).
  route(static_cast<std::size_t>(probe_shards_) + 1);
  const int g = route_.empty() ? 0 : shard(route_.front()).floor_proc;
  const int preferred_shard = shard_of(g);

  // The preferred shard inherits the global preference; the whole
  // attempt reads only the cached floors, so a rejected join costs the
  // preferred verdict plus probe_shards shard-local verdicts — no
  // processor rescans.
  Placement rejection = place(spec, preferred_shard, g, sched_.renegotiate);
  if (rejection.admitted) {
    land(spec, preferred_shard, false);
    return rejection;
  }

  // Probes: the rest of the routing order.  A probed shard admits with
  // no preferred processor, so every cross-shard placement pays the
  // migration surcharge.
  for (std::size_t k = 1; k < route_.size(); ++k) {
    const int s = route_[k];
    Placement pl = place(spec, s, -1, sched_.renegotiate);
    if (pl.admitted) {
      land(spec, s, true);
      return pl;
    }
  }

  // Report the preferred shard's reason: for S = 1 it is the
  // whole-fleet verdict, and on homogeneous loads it names the same
  // bottleneck every probe would.
  ++shards_[static_cast<std::size_t>(preferred_shard)].stats.rejected;
  return rejection;
}

Placement ShardedControlPlane::admit(const StreamSpec& spec,
                                     int preferred_processor) {
  const int s = shard_of(preferred_processor);
  Placement pl = place(spec, s, preferred_processor, sched_.renegotiate);
  if (pl.admitted) {
    land(spec, s, false);
  } else {
    ++shards_[static_cast<std::size_t>(s)].stats.rejected;
  }
  return pl;
}

void ShardedControlPlane::retract(int stream_id, Resident& resident, int s,
                                  rt::Cycles now, bool restore) {
  // Only the hosting processors are touched; processing them in
  // ascending index order keeps restore_pass's renegotiation records
  // in the order a sweep over the shard would produce.
  const Shard& sh = shard(s);
  std::vector<int>& hosts = resident.hosts;
  const auto outside = std::stable_partition(
      hosts.begin(), hosts.end(),
      [&](int p) { return p < sh.base || p >= sh.base + sh.size; });
  std::vector<int> procs(outside, hosts.end());
  hosts.erase(outside, hosts.end());
  std::sort(procs.begin(), procs.end());
  for (const int p : procs) {
    auto& cs = procs_[static_cast<std::size_t>(p)].commitments;
    const auto it = std::remove_if(cs.begin(), cs.end(),
                                   [stream_id](const Commitment& c) {
                                     return c.stream_id == stream_id;
                                   });
    if (it == cs.end()) continue;
    cs.erase(it, cs.end());
    refresh(p);
    if (restore) restore_pass(p, now);
  }
}

void ShardedControlPlane::release(int stream_id, rt::Cycles now) {
  const auto it = residents_.find(stream_id);
  if (it == residents_.end()) return;  // unknown stream: no-op
  const int s = shard_of(it->second.hosts.front());
  retract(stream_id, it->second, s, now, sched_.restore);
  residents_.erase(it);
  recompute_floor(s);
}

std::vector<BudgetRenegotiation> ShardedControlPlane::take_renegotiations() {
  return std::exchange(pending_renegotiations_, {});
}

bool ShardedControlPlane::rebalance_step(rt::Cycles now,
                                         ShardMigration* out) {
  if (watermark_ <= 0.0 || num_shards() < 2) return false;

  // Hottest and coldest shards by pressure (hottest live processor's
  // committed utilization) among shards with survivors; ties to the
  // lowest index.  Unless every live pressure is equal (then nothing
  // improves), the coldest is never the hottest.
  int hot = -1, cold = -1;
  for (int s = 0; s < num_shards(); ++s) {
    if (shard(s).hot_proc < 0) continue;
    if (hot < 0 || shard_pressure(s) > shard_pressure(hot)) hot = s;
    if (cold < 0 || shard_pressure(s) < shard_pressure(cold)) cold = s;
  }
  if (hot < 0 || shard_pressure(hot) <= 1.0 - watermark_ ||
      shard_pressure(cold) >= shard_pressure(hot)) {
    return false;
  }
  const double hot_u = shard_pressure(hot);

  // Source: the hot shard's hottest surviving processor.
  const int src = shard(hot).hot_proc;

  for (const int id : resident_stream_ids(src)) {
    Resident& resident = residents_.at(id);
    if (now < resident.spec.join_time) continue;  // not serving yet
    // The new placement takes over at the first arrival strictly
    // after `now` — the same continuation the failover path re-admits,
    // so the segment bookkeeping downstream is shared.
    StreamSpec resume;
    if (resume_after(resident.spec, now, &resume) >=
        resident.spec.num_frames) {
      continue;  // nearly done
    }
    // The probe never renegotiates: a move is worth making only if the
    // cold shard has room as it stands, and shrinking its incumbents
    // to make room would hand them budget epochs for a move that may
    // still be rejected below.
    Placement pl = place(resume, cold, -1, /*renegotiate=*/false);
    if (!pl.admitted) continue;  // try a smaller resident

    // Only keep a move that lands below where the source stood —
    // strict improvement is what makes the rebalance loop terminate
    // instead of ping-ponging a stream between two shards.
    double dst_u = committed_utilization(pl.processor);
    if (pl.split) {
      dst_u = std::max(dst_u, committed_utilization(pl.tail_processor));
    }
    if (dst_u >= hot_u) {
      // Retract the probe without a restore pass: the cold shard's
      // commitments, floor and peaks are exactly as before the probe.
      retract(id, resident, cold, now, /*restore=*/false);
      continue;
    }

    retract(id, resident, hot, now, sched_.restore);
    recompute_floor(hot);
    recompute_floor(cold);
    resident.spec = resume;
    ++shards_[static_cast<std::size_t>(hot)].stats.migrations_out;
    ++shards_[static_cast<std::size_t>(cold)].stats.migrations_in;
    out->stream_id = id;
    out->to_shard = cold;
    out->from_time = resume.join_time;
    out->placement = std::move(pl);
    return true;
  }
  return false;
}

}  // namespace qosctrl::farm
