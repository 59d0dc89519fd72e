// Sharded control plane: the fleet's M processors divided into S
// contiguous groups, each owned by its own AdmissionController (QPA
// and its incremental re-test caches carry over unchanged),
// fronted by a router that keeps the whole-fleet admission surface
// run_farm already speaks — global processor indices in, global
// placements out.
//
// Routing: a join is offered first to the shard holding the globally
// least-loaded live processor, with that processor preferred — so a
// single shard (S = 1) degenerates to exactly the old one-controller
// behavior, call for call.  If the preferred shard rejects, up to
// `probe_shards` more shards are probed in ascending order of their
// best available processor; a probed shard admits with *no* local
// preference (AdmissionController::admit with preferred = -1), so any
// cross-shard placement pays the existing migration surcharge.
//
// Rebalancing: when enabled (watermark > 0), rebalance_step() moves
// one resident at a time off the hottest shard's hottest processor
// onto the coldest shard, admit-first / release-second so a migration
// can never drop a stream: the continuation is re-admitted (paying
// the migration surcharge) before the old commitment is released.
// Everything here runs on the sequential control plane, so decisions
// stay a pure function of the call sequence.
#pragma once

#include <unordered_map>
#include <vector>

#include "farm/admission.h"

namespace qosctrl::farm {

struct ShardPlaneConfig {
  /// Processor groups; 1 collapses to the single-controller plane.
  int shards = 1;
  /// Extra shards probed (beyond the preferred one) before a join is
  /// rejected, ascending by their best available processor.
  int probe_shards = 1;
  /// Rebalancer trigger: migrate streams off a shard whose
  /// utilization headroom (1 - hottest processor's committed
  /// utilization) drops below this; 0 disables rebalancing.
  double rebalance_watermark = 0.0;
};

/// One cross-shard migration decided by rebalance_step(): the stream's
/// remaining frames re-admitted on `to_shard` (placement already in
/// global indices), ready for the simulator to open a continuation
/// segment at `from_time` — the arrival time of the first frame the
/// new placement serves (the caller knows the stream's original join
/// time, so the absolute frame index is (from_time - join) / period).
struct ShardMigration {
  int stream_id = 0;
  int from_processor = 0;
  int from_shard = 0;
  int to_shard = 0;
  rt::Cycles from_time = 0;
  Placement placement;
};

/// Per-shard admission traffic, kept by the router.
struct ShardStats {
  long long admitted = 0;       ///< placements landed on this shard
  long long probe_admits = 0;   ///< ...of which arrived via probing
  long long rejected = 0;       ///< rejects charged to the preferred shard
  long long migrations_in = 0;  ///< rebalancer arrivals
  long long migrations_out = 0;
};

class ShardedControlPlane {
 public:
  ShardedControlPlane(int num_processors, ShardPlaneConfig plane,
                      AdmissionConfig admission, TableCache* tables,
                      SchedulingSpec sched = {});

  /// Routes one join: preferred shard (holding the globally
  /// least-loaded live processor) first, then up to probe_shards
  /// probes.  A rejection reports the preferred shard's reason.
  Placement admit(const StreamSpec& spec);

  /// Releases the stream from whichever shard holds it (no-op if
  /// unknown); restore-pass semantics are the owning controller's.
  void release(int stream_id, rt::Cycles now);

  /// Budget changes imposed since the last call, drained from every
  /// shard in shard order.  At most one shard has pending records
  /// between admit/release calls, so the concatenation preserves each
  /// controller's decision order.
  std::vector<BudgetRenegotiation> take_renegotiations();

  /// One rebalancer move, or false when no shard is past the
  /// watermark, no candidate improves the balance, or rebalancing is
  /// disabled.  Callers loop (bounded) and apply each migration to
  /// their own bookkeeping.
  bool rebalance_step(rt::Cycles now, ShardMigration* out);

  // ---- whole-fleet mirror of the AdmissionController surface ----
  // (global processor indices; see run_farm)

  int num_processors() const { return num_processors_; }
  double committed_utilization(int processor) const;
  /// Globally least committed utilization over surviving processors,
  /// ties to the lowest index (0 when every processor has failed),
  /// read from the cached per-shard floors.
  int least_loaded() const;
  void fail_processor(int processor);
  bool processor_failed(int processor) const;
  std::vector<int> resident_stream_ids(int processor) const;
  std::vector<CertifiedRung> certified_ladder(int macroblocks,
                                              rt::Cycles latency,
                                              rt::Cycles period);
  /// Fleet totals, summed over shards.
  sched::EdfScanStats scan_stats() const;
  long long split_count() const;

  // ---- shard geometry and per-shard observability ----

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int shard_of(int processor) const;
  int shard_base(int s) const { return bases_.at(static_cast<std::size_t>(s)); }
  int shard_size(int s) const;
  /// Hottest live processor's committed utilization (the watermark's
  /// subject); 0 when the shard has no survivors.
  double shard_pressure(int s) const {
    return hot_util_.at(static_cast<std::size_t>(s));
  }
  /// The highest committed utilization `processor` held after any call
  /// that changed the plane: admits (split tails included), releases
  /// and their restore passes, failures and rebalance moves.
  double peak_committed_utilization(int processor) const {
    return peak_.at(static_cast<std::size_t>(processor));
  }
  /// The highest of shard s's processor peaks.
  double shard_peak_committed_utilization(int s) const;
  const ShardStats& shard_stats(int s) const {
    return stats_.at(static_cast<std::size_t>(s));
  }
  const sched::EdfScanStats& shard_scan_stats(int s) const {
    return shards_.at(static_cast<std::size_t>(s)).scan_stats();
  }

 private:
  /// Local view of `processor` inside its shard.
  int local_of(int shard, int processor) const {
    return processor - bases_[static_cast<std::size_t>(shard)];
  }
  /// Rescans shard `s`: refreshes its cached floor (and the routing
  /// order) and hottest processor, and raises its live processors'
  /// peaks.  Called after any mutation of the shard's committed state,
  /// so joins route and the rebalancer reads pressure in O(1) instead
  /// of rescanning the whole fleet.
  void recompute_floor(int s);
  /// Routing order on the cached floors: live shards first, then
  /// ascending (floor utilization, shard index).
  bool route_less(int a, int b) const;
  /// Restores route_order_'s sort after shard `s`'s floor moved:
  /// bubbles the one displaced entry to its place.  Only one key
  /// changes per mutation, so a full re-sort would be waste.
  void reposition_route(int s);

  std::vector<AdmissionController> shards_;
  std::vector<int> bases_;       ///< first global processor per shard
  std::vector<int> live_procs_;  ///< surviving processors per shard
  std::vector<ShardStats> stats_;
  /// Cached per-shard floor: the shard's least-loaded live processor
  /// (global index; -1 with no survivors) and its committed
  /// utilization.  Ties go to the lowest index, so the min over
  /// shards is the fleet's least-loaded live processor, lowest index
  /// first — what a scan of every processor would find.
  std::vector<int> floor_proc_;
  std::vector<double> floor_util_;
  /// Cached per-shard ceiling: the hottest live processor (local
  /// index, lowest on ties; -1 with no survivors) and its committed
  /// utilization, the shard's pressure.
  std::vector<int> hot_proc_;
  std::vector<double> hot_util_;
  std::vector<double> peak_;  ///< per global processor
  /// Shards sorted ascending by (floor utilization, index), dead
  /// shards (no survivors) last — the router's whole view of the
  /// fleet.  route_order_[0] holds the globally least-loaded live
  /// processor; probes read the next entries.
  std::vector<int> route_order_;
  /// stream id -> owning shard; split placements stay within a shard,
  /// so one entry suffices.
  std::unordered_map<int, int> shard_of_stream_;
  /// Latest admitted spec per stream (continuations overwrite), the
  /// rebalancer's source for remaining-frame math.
  std::unordered_map<int, StreamSpec> spec_of_;
  int num_processors_;
  int probe_shards_;
  double watermark_;
};

}  // namespace qosctrl::farm
