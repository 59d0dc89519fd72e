// Slack-table admission control for the encoder farm.
//
// The latency contract of a stream is per frame: a frame arriving at a
// must be displayed by a + K * P.  The single-stream pipeline spends
// the whole window on encoding; a farm processor cannot, because other
// streams' frames queue ahead.  Admission therefore splits the window:
//
//      K * P  =  B  (service budget)  +  L = K * P - B  (queueing slack)
//
// The stream's controller tables are compiled paced over B with
// elapsed time measured from *service start*, so the controller
// guarantees (paper Prop. 2.1) that an admitted frame occupies the
// processor for at most B cycles and finishes within B of starting —
// making the stream, from the processor's point of view, a sporadic
// task (C = B, D = K * P, T = P).  Every candidate budget is a
// multiple of the macroblock count at or above the qmin minimum, so
// its compiled slack table certifies it by construction (qmin worst
// case schedulable within B: SlackTables::max_initial_delay >= 0;
// compilation aborts otherwise), and is queried to predict the quality
// the stream's first quality-sensitive decision will be granted at
// that budget.
//
// A processor's committed worst-case load is the task set of its
// admitted streams; the admission test is the scenario's scheduling
// policy (sched::SchedPolicy — non-preemptive EDF by default,
// preemptive or quantum-sliced EDF when the scenario selects them)
// plus a utilization cap.  An arriving stream is tried at its richest
// budget on its preferred processor first, then *migrated* (other
// processors, same budget), then *split* (SchedulingSpec::split: the
// C=D semi-partitioning heuristic divides the budget into a
// zero-slack head piece on one processor and the remainder on
// another — see try_place_split), then *degraded* (smaller budgets,
// all processors) — quality before locality.  When even that fails
// and the scenario enables *renegotiation*, admission shrinks running
// controlled streams' reserved budgets toward their qmin worst case
// (recompiling slack tables from the per-budget cache) to make room:
// the newcomer enters at its cheapest certifiable budget and
// incumbents give up no more headroom than needed, largest headroom
// first.  Only if nothing fits is the stream rejected: the farm turns
// overload into rejections (or shared degradation), never into
// deadline misses on admitted streams.
//
// Streams without a compiled occupancy bound pay for it here:
// constant-quality streams commit their fixed level's full worst case,
// and feedback-controlled streams must be assumed to run at qmax —
// usually inadmissible.  Table-driven control is what makes admission
// at high utilization possible at all.
//
// The rule is decided by ShardedControlPlane (farm/shard.h), whose
// admission paths each run inside one shard's processor range; this
// header holds their vocabulary — the admission config, the shared
// table cache, placements and budget changes — and admission.cpp
// their definitions.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "encoder/system_builder.h"
#include "farm/scenario.h"

namespace qosctrl::farm {

struct AdmissionConfig {
  /// Committed-utilization ceiling per processor (<= 1.0).
  double utilization_cap = 1.0;
  /// Candidate service budgets come from two families, merged, clamped
  /// to [qmin minimum, latency window], and tried richest first:
  ///  * fractions of the K * P latency window (generous-latency
  ///    regime: spend most of the window, keep some queueing slack);
  ///  * multiples of the qmin-minimal budget (packing regime: the
  ///    worst case of qmin is already a large share of the period, so
  ///    richer budgets are expressed as headroom over it).
  /// The qmin-minimal budget itself is always the last resort.
  std::vector<double> budget_fractions = {0.85, 0.70, 0.55, 0.40};
  std::vector<double> min_budget_multiples = {3.0, 2.0, 1.5, 1.25, 1.1};
  /// Cap on one controlled stream's committed utilization share
  /// (budget / period): rich candidates above it are not offered, so
  /// early arrivals cannot hog a processor that later streams will
  /// need.  The qmin-minimal budget is exempt — a stream whose bare
  /// minimum exceeds the share cap is still offered qmin service.
  /// Uncontrolled streams are exempt too (their cost is not a choice).
  double max_stream_share = 0.25;
  /// Per-frame worst-case surcharge committed for a stream hosted off
  /// its preferred processor (cache-affinity loss; see
  /// platform::kMigrationCycles).  Makes migration compete against
  /// local degradation on real cost instead of always being tried
  /// first at zero price.
  rt::Cycles migration_cost = platform::kMigrationCycles;
};

/// Shares compiled encoder systems (schedule + slack tables) across
/// streams with the same geometry and budget.  Not thread-safe: the
/// control plane compiles sequentially; workers only read the shared
/// immutable systems.
class TableCache {
 public:
  explicit TableCache(platform::CostTable costs);

  /// The compiled system for (macroblocks, budget); built on first
  /// use, and certified: its slack tables schedule the qmin worst case
  /// within the budget (compilation aborts on a budget that cannot).
  /// Returned by reference into the cache (stable across later
  /// insertions) so the admission hot path skips the shared_ptr
  /// refcount round trip; copy it to keep it.
  const std::shared_ptr<const enc::EncoderSystem>& get(int macroblocks,
                                                       rt::Cycles budget);

  /// Smallest evenly-paced budget that is worst-case schedulable at
  /// qmin: macroblocks * sum of qmin worst cases over the body.
  rt::Cycles min_budget(int macroblocks) const;

  /// Worst-case cycles per frame when every action runs at quality
  /// level index `qi` (the committed cost of uncontrolled streams).
  rt::Cycles worst_case_frame_cost(int macroblocks, std::size_t qi) const;

  std::size_t num_quality_levels() const { return costs_.num_levels(); }
  std::size_t compiled_systems() const { return cache_.size(); }
  const platform::CostTable& costs() const { return costs_; }

 private:
  platform::CostTable costs_;
  std::vector<rt::Cycles> wc_frame_per_mb_;  ///< per quality index
  std::map<std::pair<int, rt::Cycles>,
           std::shared_ptr<const enc::EncoderSystem>>
      cache_;
};

/// The admission verdict for one stream.
struct Placement {
  bool admitted = false;
  int processor = -1;
  /// Committed worst-case occupancy per frame (the sporadic-task cost).
  rt::Cycles committed_cost = 0;
  /// Budget the session's controller tables are paced over.
  rt::Cycles table_budget = 0;
  bool migrated = false;  ///< placed off the preferred processor
  bool degraded = false;  ///< below the richest candidate budget
  /// Admitted only because running streams' budgets were shrunk.
  bool via_renegotiation = false;
  /// C=D semi-partitioned placement (SchedulingSpec::split): the
  /// per-frame service is divided into a zero-slack head piece
  /// (C = D = head_cost, T = P) on `processor` and the remainder
  /// (tail_cost, deadline K*P - head_cost, T = P) on
  /// `tail_processor`, which always pays the migration surcharge —
  /// the frame's working set moves between the processors every
  /// period.  The head processor index is always below the tail's
  /// (the data plane simulates handoff sources before sinks).
  bool split = false;
  int tail_processor = -1;
  rt::Cycles head_cost = 0;  ///< C1: the zero-slack head piece
  rt::Cycles tail_cost = 0;  ///< committed tail incl. migration
  /// Quality index the slack tables grant an on-time frame at its
  /// first quality-sensitive decision (later decisions may exceed it).
  std::size_t initial_quality = 0;
  std::string reason;  ///< why rejected (empty when admitted)
  /// Compiled system for the session (shared; null when rejected).
  std::shared_ptr<const enc::EncoderSystem> system;
};

/// One reserved-budget interval of an admitted stream's life.  The
/// initial placement opens the first epoch; every renegotiation that
/// shrinks the stream opens another.  Frames *arriving* at or after
/// `from_time` are paced over this epoch's tables.
struct BudgetEpoch {
  rt::Cycles from_time = 0;
  rt::Cycles table_budget = 0;
  rt::Cycles committed_cost = 0;
  std::shared_ptr<const enc::EncoderSystem> system;
};

/// One rung of a controlled stream's budget ladder: a candidate budget
/// with its compiled system, whose slack tables certify the qmin worst
/// case (max_initial_delay >= 0, see TableCache::get).  Ladders are
/// built by the control plane (TableCache is not thread-safe); the
/// data plane's overrun policer only follows the shared pointers.
struct CertifiedRung {
  rt::Cycles table_budget = 0;
  std::shared_ptr<const enc::EncoderSystem> system;
};

/// A budget change imposed on a running stream: a shrink (to admit a
/// newcomer) or, with SchedulingSpec::restore, a grow (after a
/// departure freed capacity).
struct BudgetRenegotiation {
  int stream_id = 0;
  /// The newcomer's join time (shrink) or the departure time (grow).
  rt::Cycles effective_time = 0;
  rt::Cycles table_budget = 0;    ///< the new budget
  rt::Cycles committed_cost = 0;
  bool grow = false;              ///< restore pass, not a shrink
  std::shared_ptr<const enc::EncoderSystem> system;
};

}  // namespace qosctrl::farm
