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
// task (C = B, D = K * P, T = P).  The compiled slack table is queried
// to certify the candidate budget (qmin worst case schedulable within
// B: SlackTables::max_initial_delay >= 0) and to predict the quality
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
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "encoder/system_builder.h"
#include "farm/scenario.h"
#include "sched/policy.h"

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
  /// use.  Returned by reference into the cache (stable across later
  /// insertions) so certification probes on the admission hot path
  /// skip the shared_ptr refcount round trip; copy it to keep it.
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

/// One certified rung of a controlled stream's budget ladder: a
/// candidate budget whose slack tables certify the qmin worst case
/// (max_initial_delay >= 0), with its compiled system.  Ladders are
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

/// Tracks per-processor committed worst-case load and decides
/// admission under the scenario's scheduling policy.  Deterministic:
/// same call sequence, same verdicts.
class AdmissionController {
 public:
  AdmissionController(int num_processors, AdmissionConfig config,
                      TableCache* tables, SchedulingSpec sched = {});

  /// Admission decision for `spec`, preferring `preferred_processor`.
  /// On success the stream's load is committed until release().  May
  /// shrink running streams when the scenario enables renegotiation;
  /// collect the shrinks with take_renegotiations().
  ///
  /// `preferred_processor` may be -1: *no* processor is local to the
  /// stream, so placements are tried least-loaded first and every one
  /// pays the migration surcharge — the contract a sharded control
  /// plane uses when it probes a foreign shard or rebalances a stream
  /// across shards (farm/shard.h).
  Placement admit(const StreamSpec& spec, int preferred_processor);

  /// Budget changes imposed since the last call (admit() appends
  /// shrinks, release() appends restore grows, both in decision
  /// order; each carries its effective time).
  std::vector<BudgetRenegotiation> take_renegotiations();

  /// Releases the commitment of a departed stream (no-op if unknown).
  /// With SchedulingSpec::restore, then grows previously-shrunk
  /// incumbents on the freed processor back up the certified ladder;
  /// `now` stamps the resulting grow epochs (deliberately not
  /// defaulted — a zero timestamp would order grow epochs before the
  /// victims' own admissions).
  void release(int stream_id, rt::Cycles now);

  int num_processors() const {
    return static_cast<int>(committed_.size());
  }
  double committed_utilization(int processor) const;
  int committed_streams(int processor) const;

  /// Cumulative demand-scan work done by every schedulability query
  /// this controller issued (admission, renegotiation, restore) — the
  /// control-plane profiling counters of the observability layer.
  const sched::EdfScanStats& scan_stats() const { return scan_stats_; }

  /// Total number of C=D split placements ever committed (the
  /// admission_splits counter).
  long long split_count() const { return split_count_; }

  /// Marks `processor` permanently failed: it hosts no new
  /// commitments, the restore pass skips it, and neither the sweep
  /// order nor a sharded router's floor ever prefers it.  Existing commitments stay until release() — the
  /// failure handler releases and re-admits them one by one.
  void fail_processor(int processor);
  bool processor_failed(int processor) const;

  /// Stream ids currently committed on `processor`, ascending — the
  /// deterministic re-admission order after a failure.
  std::vector<int> resident_stream_ids(int processor) const;

  /// The certified budget ladder for a controlled stream's geometry
  /// and contract, richest rung first, the qmin minimum last: the
  /// rungs the simulator's forced-downgrade and quarantine re-entry
  /// paths may move a stream to.  Compiles (and caches) each rung's
  /// system, so callers must be on the control plane.
  std::vector<CertifiedRung> certified_ladder(int macroblocks,
                                              rt::Cycles latency,
                                              rt::Cycles period);

 private:
  struct Commitment {
    int stream_id = 0;
    sched::NpTask task;
    /// Renegotiation state: only controlled streams can shrink (down
    /// to min_budget) or be restored (up to desired_budget, the budget
    /// they were originally admitted at).
    bool controlled = false;
    int macroblocks = 0;
    rt::Cycles table_budget = 0;
    rt::Cycles min_budget = 0;
    rt::Cycles desired_budget = 0;
    /// Migration surcharge folded into task.cost while the stream is
    /// hosted off its preferred processor; budget changes must
    /// preserve it (task.cost = table_budget + surcharge).
    rt::Cycles migration_surcharge = 0;
  };

  /// Incrementally maintained mirror of one processor's committed
  /// task set — what makes admission churn cheap.  `tasks` and `util`
  /// duplicate committed_[p] (same order, utilization accumulated by
  /// the exact same left-fold addition sequence a fresh scan would
  /// perform, so cap comparisons are bit-identical to rebuilding);
  /// `busy_hint` is a lower bound on the set's synchronous busy-period
  /// length, used to warm-start QPA's fixpoint (sound per the
  /// DemandQuery contract: it is refreshed from the demand test that
  /// admitted the latest commitment, and reset whenever a commitment
  /// shrinks or leaves).  A candidate is tested by push_back /
  /// pop_back on `tasks` — no per-test rebuild of the whole set.
  struct CachedDemand {
    bool dirty = true;
    std::vector<sched::NpTask> tasks;
    double util = 0.0;
    rt::Cycles busy_hint = 0;
  };

  /// The refreshed cache for processor `p` (rebuilds from
  /// committed_[p] when a mutation marked it dirty).
  CachedDemand& demand(int p) const;

  /// Marks `p`'s cache stale after any commitment mutation other than
  /// a plain append (release, shrink, rollback, restore): the next
  /// demand(p) rebuilds tasks + util and resets the busy hint.
  void demand_invalidate(int p);

  /// Appends the just-committed task to `p`'s cache and promotes the
  /// busy length computed by the admitting demand test into the warm
  /// hint (that test ran over exactly the new committed set).
  void demand_append(int p, const sched::NpTask& task);

  /// True when `candidate` fits processor `p` on top of its current
  /// commitments (policy demand test + utilization cap).
  bool fits(int p, const sched::NpTask& candidate) const;

  /// Candidate service budgets for a controlled stream, richest first
  /// (fractions of the latency window and multiples of the qmin
  /// minimum, share-capped; the qmin minimum always last).  A pure
  /// function of the config and the cost tables, memoized on the last
  /// (macroblocks, latency, period) key: join storms share geometry,
  /// so the ladder is built once per run, not once per verdict.  The
  /// reference is invalidated by the next call with a different key.
  const std::vector<rt::Cycles>& controlled_candidates(
      int macroblocks, rt::Cycles latency, rt::Cycles period) const;

  /// Records the commitment of an accepted (budget, cost) candidate
  /// on processor `p` and fills `out` (shared tail of the placement
  /// paths).
  void commit_and_fill(const StreamSpec& spec, const sched::NpTask& task,
                       rt::Cycles table_budget, int p, int preferred,
                       std::shared_ptr<const enc::EncoderSystem> system,
                       Placement* out);

  /// Calls `place(p)` over the processors in sweep order until one
  /// call returns true (and then returns true): `preferred` first,
  /// then the rest in index order; with preferred = -1, least-loaded
  /// first (unpreferred_order(), bound when the sweep starts).
  template <typename Place>
  bool sweep(int preferred, Place&& place);

  /// Tries one (budget, cost) candidate on the preferred processor
  /// first, then the others; commits and fills `out` on success.
  /// With preferred = -1 the sweep runs least-loaded first and every
  /// processor charges the migration surcharge.
  bool try_place(const StreamSpec& spec, rt::Cycles table_budget,
                 rt::Cycles cost, int preferred, Placement* out);

  /// Probe order for a stream with no preferred processor: ascending
  /// (committed utilization, index).  Cached between commitment
  /// mutations — a rejection sweep re-reads the same order per
  /// candidate, so rebuilding it each time would be pure waste.
  const std::vector<int>& unpreferred_order() const;

  /// Like try_place, but allowed to shrink running controlled
  /// commitments (largest budget headroom first, one ladder step at a
  /// time) until the candidate fits; rolls back on failure.  Appends
  /// the imposed shrinks to pending_renegotiations_ on success.
  bool try_place_renegotiating(const StreamSpec& spec,
                               rt::Cycles table_budget, rt::Cycles cost,
                               int preferred, Placement* out);

  /// C=D semi-partitioning (SchedulingSpec::split): places the stream
  /// as a zero-slack head piece (C1, D = C1, T = P) on one processor
  /// plus the remainder (cost - C1 + migration surcharge,
  /// D = K*P - C1, T = P) on a higher-indexed one.  C1 is the largest
  /// head the first processor admits (binary search over the demand
  /// test).  Commits both pieces and fills `out` on success.  Split
  /// pieces are never renegotiated, restored, or ladder-downgraded.
  bool try_place_split(const StreamSpec& spec, rt::Cycles table_budget,
                       rt::Cycles cost, Placement* out);

  /// The committed set of processor `p` is schedulable as-is (policy
  /// demand test + utilization cap, no candidate).
  bool set_schedulable(int p) const;

  /// Restore pass after a departure freed capacity on `p`: grow
  /// previously-shrunk controlled commitments back toward the budget
  /// they were admitted at, largest deficit first, one certified
  /// ladder rung at a time, while the set stays schedulable.  Appends
  /// grow records (effective at `now`) to pending_renegotiations_.
  void restore_pass(int p, rt::Cycles now);

  AdmissionConfig config_;
  SchedulingSpec sched_;
  sched::SchedPolicy policy_;
  TableCache* tables_;
  std::vector<std::vector<Commitment>> committed_;  ///< per processor
  std::vector<bool> failed_;                        ///< per processor
  std::vector<BudgetRenegotiation> pending_renegotiations_;
  /// Accumulated by the const demand tests (fits / set_schedulable);
  /// the control plane is sequential, so plain mutable is safe.
  mutable sched::EdfScanStats scan_stats_;
  /// Per-processor incremental demand caches (lazily refreshed by the
  /// const test paths, hence mutable — control plane is sequential).
  mutable std::vector<CachedDemand> demand_;
  /// Busy length reported by the most recent demand test.
  mutable rt::Cycles last_test_busy_ = 0;
  /// controlled_candidates memo (see its doc comment).
  mutable int cand_mb_ = -1;
  mutable rt::Cycles cand_latency_ = 0;
  mutable rt::Cycles cand_period_ = 0;
  mutable std::vector<rt::Cycles> cand_cache_;
  /// unpreferred_order cache, marked stale by demand_append /
  /// demand_invalidate — the same hooks every commitment mutation
  /// already goes through.
  mutable std::vector<int> unpreferred_cache_;
  mutable bool unpreferred_dirty_ = true;
  /// stream id -> processors holding one of its commitments (one
  /// entry per commit, so a C=D split records two).  Pure accelerator
  /// for release(): a leave touches only the hosting processors
  /// instead of sweeping the fleet — the other half of what keeps
  /// steady-state churn O(residents of one processor) at 10k+
  /// resident streams (BM_AdmissionThroughput).
  std::unordered_map<int, std::vector<int>> host_of_;
  long long split_count_ = 0;
};

}  // namespace qosctrl::farm
