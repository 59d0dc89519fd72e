#include "farm/shard.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace qosctrl::farm {

ShardedControlPlane::ShardedControlPlane(int num_processors,
                                         ShardPlaneConfig plane,
                                         AdmissionConfig admission,
                                         TableCache* tables,
                                         SchedulingSpec sched)
    : num_processors_(num_processors),
      probe_shards_(plane.probe_shards),
      watermark_(plane.rebalance_watermark) {
  QC_EXPECT(num_processors >= 1, "farm needs at least one processor");
  QC_EXPECT(plane.shards >= 1 && plane.shards <= num_processors,
            "shard count must be in [1, num_processors]");
  QC_EXPECT(plane.probe_shards >= 0, "probe_shards must be >= 0");
  QC_EXPECT(plane.rebalance_watermark >= 0.0 &&
                plane.rebalance_watermark < 1.0,
            "rebalance watermark must be in [0, 1)");
  const int s_count = plane.shards;
  shards_.reserve(static_cast<std::size_t>(s_count));
  bases_.reserve(static_cast<std::size_t>(s_count));
  stats_.resize(static_cast<std::size_t>(s_count));
  floor_proc_.resize(static_cast<std::size_t>(s_count));
  floor_util_.resize(static_cast<std::size_t>(s_count));
  hot_proc_.resize(static_cast<std::size_t>(s_count));
  hot_util_.resize(static_cast<std::size_t>(s_count));
  peak_.resize(static_cast<std::size_t>(num_processors));
  for (int s = 0; s < s_count; ++s) {
    // Contiguous near-even slices: shard s owns global processors
    // [s*M/S, (s+1)*M/S).
    const int lo = s * num_processors / s_count;
    const int hi = (s + 1) * num_processors / s_count;
    bases_.push_back(lo);
    live_procs_.push_back(hi - lo);
    shards_.emplace_back(hi - lo, admission, tables, sched);
    recompute_floor(s);
  }
}

void ShardedControlPlane::recompute_floor(int s) {
  const AdmissionController& ctl = shards_[static_cast<std::size_t>(s)];
  const int base = bases_[static_cast<std::size_t>(s)];
  int best = -1, hot = -1;
  double best_u = 0.0, hot_u = 0.0;
  for (int p = 0; p < ctl.num_processors(); ++p) {
    if (ctl.processor_failed(p)) continue;
    const double u = ctl.committed_utilization(p);
    double& peak = peak_[static_cast<std::size_t>(base + p)];
    peak = std::max(peak, u);
    // Strict comparisons: ties keep the lowest index.
    if (best < 0 || u < best_u) {
      best = p;
      best_u = u;
    }
    if (hot < 0 || u > hot_u) {
      hot = p;
      hot_u = u;
    }
  }
  const auto i = static_cast<std::size_t>(s);
  floor_proc_[i] = best < 0 ? -1 : base + best;
  floor_util_[i] = best_u;
  hot_proc_[i] = hot;
  hot_util_[i] = hot_u;
  reposition_route(s);
}

bool ShardedControlPlane::route_less(int a, int b) const {
  const bool live_a = floor_proc_[static_cast<std::size_t>(a)] >= 0;
  const bool live_b = floor_proc_[static_cast<std::size_t>(b)] >= 0;
  if (live_a != live_b) return live_a;  // survivors first
  const double ua = floor_util_[static_cast<std::size_t>(a)];
  const double ub = floor_util_[static_cast<std::size_t>(b)];
  if (live_a && ua != ub) return ua < ub;
  return a < b;
}

void ShardedControlPlane::reposition_route(int s) {
  auto it = std::find(route_order_.begin(), route_order_.end(), s);
  if (it == route_order_.end()) {  // first sighting: construction
    it = route_order_.insert(route_order_.end(), s);
  }
  while (it != route_order_.begin() && route_less(*it, *(it - 1))) {
    std::iter_swap(it, it - 1);
    --it;
  }
  while (it + 1 != route_order_.end() && route_less(*(it + 1), *it)) {
    std::iter_swap(it, it + 1);
    ++it;
  }
}

int ShardedControlPlane::shard_of(int processor) const {
  QC_EXPECT(processor >= 0 && processor < num_processors_,
            "processor index out of range");
  // bases_ is ascending; the owning shard is the last base <= processor.
  const auto it =
      std::upper_bound(bases_.begin(), bases_.end(), processor);
  return static_cast<int>(it - bases_.begin()) - 1;
}

int ShardedControlPlane::shard_size(int s) const {
  const std::size_t i = static_cast<std::size_t>(s);
  return shards_.at(i).num_processors();
}

double ShardedControlPlane::committed_utilization(int processor) const {
  const int s = shard_of(processor);
  return shards_[static_cast<std::size_t>(s)].committed_utilization(
      local_of(s, processor));
}

int ShardedControlPlane::least_loaded() const {
  // route_order_ is sorted by (floor utilization, shard index) with
  // survivors first, and each shard's floor already ties to the
  // lowest local index — so the head of the order is what a scan of
  // every processor would find, read in O(1).
  const int p = floor_proc_[static_cast<std::size_t>(route_order_.front())];
  return p < 0 ? 0 : p;  // a dead head means every processor failed
}

void ShardedControlPlane::fail_processor(int processor) {
  const int s = shard_of(processor);
  AdmissionController& ctl = shards_[static_cast<std::size_t>(s)];
  const int local = local_of(s, processor);
  if (!ctl.processor_failed(local)) {
    --live_procs_[static_cast<std::size_t>(s)];
  }
  ctl.fail_processor(local);
  recompute_floor(s);
}

bool ShardedControlPlane::processor_failed(int processor) const {
  const int s = shard_of(processor);
  return shards_[static_cast<std::size_t>(s)].processor_failed(
      local_of(s, processor));
}

std::vector<int> ShardedControlPlane::resident_stream_ids(
    int processor) const {
  const int s = shard_of(processor);
  return shards_[static_cast<std::size_t>(s)].resident_stream_ids(
      local_of(s, processor));
}

std::vector<CertifiedRung> ShardedControlPlane::certified_ladder(
    int macroblocks, rt::Cycles latency, rt::Cycles period) {
  // Ladders depend only on the shared table cache and the scheduling
  // contract, never on committed state: any shard compiles the same.
  return shards_.front().certified_ladder(macroblocks, latency, period);
}

sched::EdfScanStats ShardedControlPlane::scan_stats() const {
  sched::EdfScanStats total;
  for (const AdmissionController& ctl : shards_) {
    const sched::EdfScanStats& s = ctl.scan_stats();
    total.demand_tests += s.demand_tests;
    total.busy_iterations += s.busy_iterations;
    total.qpa_points += s.qpa_points;
  }
  return total;
}

long long ShardedControlPlane::split_count() const {
  long long total = 0;
  for (const AdmissionController& ctl : shards_) total += ctl.split_count();
  return total;
}

double ShardedControlPlane::shard_peak_committed_utilization(int s) const {
  const auto first = peak_.begin() + shard_base(s);
  return *std::max_element(first, first + shard_size(s));
}

namespace {

/// Shifts a shard-local placement into global processor indices.
void globalize(Placement* pl, int base) {
  if (pl->processor >= 0) pl->processor += base;
  if (pl->tail_processor >= 0) pl->tail_processor += base;
}

}  // namespace

Placement ShardedControlPlane::admit(const StreamSpec& spec) {
  const int g = least_loaded();
  const int preferred_shard = shard_of(g);

  // Lands an accepted placement on shard s and refreshes its floor.
  const auto land = [&](int s, bool probed, Placement&& pl) {
    globalize(&pl, bases_[static_cast<std::size_t>(s)]);
    shard_of_stream_[spec.id] = s;
    spec_of_[spec.id] = spec;
    ShardStats& st = stats_[static_cast<std::size_t>(s)];
    ++st.admitted;
    if (probed) ++st.probe_admits;
    recompute_floor(s);
    return std::move(pl);
  };

  // The preferred shard inherits the global preference; the whole
  // attempt reads only cached routing state, so a rejected join costs
  // the preferred verdict plus probe_shards shard-local verdicts — no
  // fleet rescans, no allocation.
  Placement rejection = shards_[static_cast<std::size_t>(preferred_shard)]
                            .admit(spec, local_of(preferred_shard, g));
  if (rejection.admitted) {
    return land(preferred_shard, false, std::move(rejection));
  }

  // Probes: walk the cached order (ascending floor, ties to the
  // lowest shard index), skipping the shard already tried and any
  // shard with no survivors (sorted to the tail).  A probed shard
  // admits with no local preference, so every cross-shard placement
  // pays the migration surcharge.
  int probes_left = probe_shards_;
  for (std::size_t k = 0;
       k < route_order_.size() && probes_left > 0; ++k) {
    const int s = route_order_[k];
    if (s == preferred_shard) continue;
    if (floor_proc_[static_cast<std::size_t>(s)] < 0) break;
    --probes_left;
    Placement pl = shards_[static_cast<std::size_t>(s)].admit(spec, -1);
    if (pl.admitted) return land(s, true, std::move(pl));
  }

  // Report the preferred shard's reason: for S = 1 it is the
  // whole-fleet verdict, and on homogeneous loads it names the same
  // bottleneck every probe would.
  ++stats_[static_cast<std::size_t>(preferred_shard)].rejected;
  return rejection;
}

void ShardedControlPlane::release(int stream_id, rt::Cycles now) {
  const auto it = shard_of_stream_.find(stream_id);
  if (it == shard_of_stream_.end()) return;  // unknown stream: no-op
  const int s = it->second;
  shards_[static_cast<std::size_t>(s)].release(stream_id, now);
  shard_of_stream_.erase(it);
  spec_of_.erase(stream_id);
  recompute_floor(s);
}

std::vector<BudgetRenegotiation> ShardedControlPlane::take_renegotiations() {
  std::vector<BudgetRenegotiation> all;
  for (AdmissionController& ctl : shards_) {
    std::vector<BudgetRenegotiation> r = ctl.take_renegotiations();
    all.insert(all.end(), std::make_move_iterator(r.begin()),
               std::make_move_iterator(r.end()));
  }
  return all;
}

bool ShardedControlPlane::rebalance_step(rt::Cycles now,
                                         ShardMigration* out) {
  if (watermark_ <= 0.0 || num_shards() < 2) return false;

  // Hottest and coldest shards by pressure (hottest live processor's
  // committed utilization); ties to the lowest index.
  int hot = -1, cold = -1;
  double hot_u = 0.0, cold_u = 0.0;
  for (int s = 0; s < num_shards(); ++s) {
    if (live_procs_[static_cast<std::size_t>(s)] == 0) continue;
    const double u = shard_pressure(s);
    if (hot < 0 || u > hot_u) {
      hot = s;
      hot_u = u;
    }
  }
  if (hot < 0 || hot_u <= 1.0 - watermark_) return false;
  for (int s = 0; s < num_shards(); ++s) {
    if (s == hot || live_procs_[static_cast<std::size_t>(s)] == 0) continue;
    const double u = shard_pressure(s);
    if (cold < 0 || u < cold_u) {
      cold = s;
      cold_u = u;
    }
  }
  if (cold < 0 || cold_u >= hot_u) return false;

  // Source: the hot shard's hottest surviving processor.
  AdmissionController& src_ctl = shards_[static_cast<std::size_t>(hot)];
  const int src = hot_proc_[static_cast<std::size_t>(hot)];
  const double src_u = hot_u;

  AdmissionController& dst_ctl = shards_[static_cast<std::size_t>(cold)];
  for (const int id : src_ctl.resident_stream_ids(src)) {
    const auto sit = spec_of_.find(id);
    if (sit == spec_of_.end()) continue;
    const StreamSpec& cur = sit->second;
    const rt::Cycles period = period_of(cur);
    if (now < cur.join_time) continue;  // not serving yet
    // The new placement takes over at the first arrival strictly
    // after `now` — the same continuation split the failover path
    // uses, so the segment bookkeeping downstream is shared.
    const int first_frame =
        static_cast<int>((now - cur.join_time) / period) + 1;
    if (first_frame >= cur.num_frames) continue;  // nearly done

    StreamSpec resume = cur;
    resume.join_time =
        cur.join_time + static_cast<rt::Cycles>(first_frame) * period;
    resume.num_frames = cur.num_frames - first_frame;
    Placement pl = dst_ctl.admit(resume, -1);
    if (!pl.admitted) continue;  // try a smaller resident

    // Only keep a move that lands below where the source stood —
    // strict improvement is what makes the rebalance loop terminate
    // instead of ping-ponging a stream between two shards.
    double dst_u = dst_ctl.committed_utilization(pl.processor);
    if (pl.split) {
      dst_u = std::max(dst_u,
                       dst_ctl.committed_utilization(pl.tail_processor));
    }
    if (dst_u >= src_u) {
      dst_ctl.release(id, now);  // undo the probe admit
      // The release's restore pass may have regrown incumbents, so
      // the cold shard's floor can differ even after a rollback.
      recompute_floor(cold);
      continue;
    }

    src_ctl.release(id, now);
    recompute_floor(hot);
    recompute_floor(cold);
    globalize(&pl, bases_[static_cast<std::size_t>(cold)]);
    shard_of_stream_[id] = cold;
    sit->second = resume;
    ++stats_[static_cast<std::size_t>(hot)].migrations_out;
    ++stats_[static_cast<std::size_t>(cold)].migrations_in;
    out->stream_id = id;
    out->from_processor = bases_[static_cast<std::size_t>(hot)] + src;
    out->from_shard = hot;
    out->to_shard = cold;
    out->from_time = resume.join_time;
    out->placement = std::move(pl);
    return true;
  }
  return false;
}

}  // namespace qosctrl::farm
