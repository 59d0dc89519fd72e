// The farm's control plane: one class holding every commitment, in
// global processor indices.  The fleet's M processors are divided into
// S contiguous index ranges (shards); each admission path — placement
// sweep, C=D split, renegotiation, the restore pass and the cached QPA
// demand test (farm/admission.h) — runs inside one shard's range, so a
// verdict costs at most one shard's demand tests.  S = 1 is a single
// range over the whole fleet.
//
// Routing: a join is offered first to the shard holding the globally
// least-loaded live processor, with that processor preferred — so a
// single shard (S = 1) is exactly the whole-fleet admission rule, call
// for call.  If the preferred shard rejects, up to `probe_shards` more
// shards are probed in ascending order of their best available
// processor; a probed shard admits with *no* preferred processor, so
// any cross-shard placement pays the migration surcharge.
//
// Rebalancing: when enabled (watermark > 0), rebalance_step() moves
// one resident at a time off the hottest shard's hottest processor
// onto the coldest shard, admit-first / release-second so a migration
// can never drop a stream: the continuation is re-admitted (paying
// the migration surcharge) before the old commitment is released.
// The re-admission never renegotiates, and a move the rebalancer
// rejects is retracted without a restore pass, so it leaves no trace:
// no commitment, budget change or peak of the cold shard moves.
// Everything here runs on the sequential control plane, so decisions
// stay a pure function of the call sequence.
#pragma once

#include <limits>
#include <unordered_map>
#include <vector>

#include "farm/admission.h"
#include "sched/policy.h"

namespace qosctrl::farm {

struct ShardPlaneConfig {
  /// Processor ranges; 1 is a single range over the whole fleet.
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
/// remaining frames re-admitted on `to_shard`, ready for the simulator
/// to open a continuation segment at `from_time` — the arrival time of
/// the first frame the new placement serves (the caller knows the
/// stream's original join time, so the absolute frame index is
/// (from_time - join) / period).
struct ShardMigration {
  int stream_id = 0;
  int to_shard = 0;
  rt::Cycles from_time = 0;
  Placement placement;
};

/// Per-shard admission traffic.
struct ShardStats {
  long long admitted = 0;       ///< placements landed on this shard
  long long probe_admits = 0;   ///< ...of which arrived via probing
  long long rejected = 0;       ///< rejects charged to the preferred shard
  long long migrations_in = 0;  ///< rebalancer arrivals
  long long migrations_out = 0;
  long long demand_tests = 0;   ///< schedulability queries on its range
};

class ShardedControlPlane {
 public:
  ShardedControlPlane(int num_processors, ShardPlaneConfig plane,
                      AdmissionConfig admission, TableCache* tables,
                      SchedulingSpec sched = {});

  /// Routes one join: preferred shard (holding the globally
  /// least-loaded live processor) first, then up to probe_shards
  /// probes.  On success the stream's load is committed until
  /// release().  May shrink running streams when the scenario enables
  /// renegotiation; collect the shrinks with take_renegotiations().
  /// A rejection reports the preferred shard's reason.
  Placement admit(const StreamSpec& spec);

  /// The admission decision inside the shard owning
  /// `preferred_processor`, with that processor preferred and no
  /// probes: the first verdict admit(spec) asks for, with the
  /// preference pinned by the caller instead of the router.
  Placement admit(const StreamSpec& spec, int preferred_processor);

  /// Releases the commitment of a departed stream (no-op if unknown).
  /// With SchedulingSpec::restore, then grows previously-shrunk
  /// incumbents on the freed processors back up the certified ladder;
  /// `now` stamps the resulting grow epochs (deliberately not
  /// defaulted — a zero timestamp would order grow epochs before the
  /// victims' own admissions).
  void release(int stream_id, rt::Cycles now);

  /// Budget changes imposed since the last call (admits append
  /// shrinks, releases and rebalance moves append restore grows), in
  /// decision order; each carries its effective time.
  std::vector<BudgetRenegotiation> take_renegotiations();

  /// One rebalancer move, or false when no shard is past the
  /// watermark, no candidate improves the balance, or rebalancing is
  /// disabled.  Callers loop (bounded) and apply each migration to
  /// their own bookkeeping.
  bool rebalance_step(rt::Cycles now, ShardMigration* out);

  int num_processors() const { return static_cast<int>(procs_.size()); }
  double committed_utilization(int processor) const {
    return procs_.at(static_cast<std::size_t>(processor)).util;
  }
  /// Marks `processor` permanently failed: it hosts no new
  /// commitments, the restore pass skips it, and neither the sweep
  /// order nor the router's floor ever prefers it.  Existing
  /// commitments stay until release() — the failure handler releases
  /// and re-admits them one by one.
  void fail_processor(int processor);
  bool processor_failed(int processor) const {
    return procs_.at(static_cast<std::size_t>(processor)).failed;
  }
  /// Stream ids currently committed on `processor`, ascending — the
  /// deterministic re-admission order after a failure.
  std::vector<int> resident_stream_ids(int processor) const;
  /// The budget ladder for a controlled stream's geometry and
  /// contract — its candidate budgets with their certified systems,
  /// richest rung first, the qmin minimum last: the rungs the
  /// simulator's forced-downgrade and quarantine re-entry paths may
  /// move a stream to.  Compiles (and caches) each rung's system, so
  /// callers must be on the control plane.
  std::vector<CertifiedRung> certified_ladder(int macroblocks,
                                              rt::Cycles latency,
                                              rt::Cycles period);
  /// Cumulative demand-scan work done by every schedulability query
  /// (admission, renegotiation, restore) — the control-plane
  /// profiling counters of the observability layer.
  const sched::EdfScanStats& scan_stats() const { return scan_stats_; }
  /// Total number of C=D split placements ever committed (the
  /// admission_splits counter).
  long long split_count() const { return split_count_; }

  // ---- shard geometry and per-shard observability ----

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int shard_of(int processor) const;
  int shard_base(int s) const { return shard(s).base; }
  int shard_size(int s) const { return shard(s).size; }
  /// Hottest live processor's committed utilization (the watermark's
  /// subject); 0 when the shard has no survivors.
  double shard_pressure(int s) const { return shard(s).hot_util; }
  /// The highest committed utilization `processor` held after any call
  /// that changed the plane: admits (split tails included), releases
  /// and their restore passes, failures and rebalance moves.
  double peak_committed_utilization(int processor) const {
    return procs_.at(static_cast<std::size_t>(processor)).peak;
  }
  /// The highest of shard s's processor peaks.
  double shard_peak_committed_utilization(int s) const;
  const ShardStats& shard_stats(int s) const { return shard(s).stats; }

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

  /// One processor's committed state.  `tasks` and `util` follow
  /// `commitments` (same order; utilization accumulated by the left
  /// fold over commitment order, so cap comparisons are bit-identical
  /// to a fresh scan), refreshed by every mutation: an append extends
  /// them, anything else (release, shrink, rollback, restore, split)
  /// refolds them through refresh().  `busy_hint` is a lower bound on
  /// the set's synchronous busy-period length, used to warm-start
  /// QPA's fixpoint (sound per the DemandQuery contract: it is taken
  /// from the demand test that admitted the latest commitment, and
  /// reset by refresh()).  A candidate is tested by push_back /
  /// pop_back on `tasks` — no per-test rebuild of the whole set.
  struct Processor {
    std::vector<Commitment> commitments;
    std::vector<sched::NpTask> tasks;
    double util = 0.0;
    rt::Cycles busy_hint = 0;
    bool failed = false;
    double peak = 0.0;  ///< see peak_committed_utilization()
  };

  /// One contiguous processor range and the router's cached view of
  /// it, refreshed by recompute_floor().
  struct Shard {
    int base = 0;  ///< first global processor
    int size = 0;
    ShardStats stats;
    /// The least-loaded live processor (-1 with no survivors); its
    /// committed utilization is floors_[s].  Ties go to the lowest
    /// index, so the min over shards is the fleet's least-loaded live
    /// processor, lowest index first — what a scan of every processor
    /// would find.
    int floor_proc = -1;
    /// The hottest live processor (lowest on ties; -1 with no
    /// survivors) and its committed utilization, the shard's pressure.
    int hot_proc = -1;
    double hot_util = 0.0;
    /// Probe order for a stream with no preferred processor, stale
    /// after any commitment change in the range (see
    /// unpreferred_order()).
    std::vector<int> unpreferred;
    bool unpreferred_dirty = true;
  };

  /// A stream's current spec (continuations overwrite it: the
  /// rebalancer's source for remaining-frame math) and the processors
  /// holding one of its commitments, one entry per commit (a C=D split
  /// records two).  The host list lets release() touch only the
  /// hosting processors instead of sweeping the fleet — what keeps
  /// steady-state churn O(residents of one processor) at 10k+
  /// resident streams (BM_AdmissionThroughput).
  struct Resident {
    StreamSpec spec;
    std::vector<int> hosts;
  };

  const Shard& shard(int s) const {
    return shards_.at(static_cast<std::size_t>(s));
  }

  // ---- admission inside one shard (admission.cpp) ----

  /// One (budget, cost) pair place() offers: a controlled stream's
  /// ladder rung at its own cost, or an uncontrolled stream's level
  /// worst case over the widest budget its window allows.
  struct Candidate {
    rt::Cycles budget = 0;
    rt::Cycles cost = 0;
  };

  /// The admission decision for `spec` inside shard `s`, preferring
  /// global processor `preferred` (in s), or none with -1: placements
  /// are then tried least-loaded first and every one pays the
  /// migration surcharge.  Walks the stream's candidates richest
  /// first — each whole, then split — and then, if `renegotiate`,
  /// shrinks incumbents to fit the last one.
  Placement place(const StreamSpec& spec, int s, int preferred,
                  bool renegotiate);

  /// Refolds `p`'s tasks and utilization from its commitments, resets
  /// its busy hint and marks its shard's probe order stale: the hook
  /// every commitment mutation other than a plain append goes through.
  void refresh(int p);

  /// One policy demand test over `p`'s task set as it stands.
  bool demand_test(int p);

  /// True when `candidate` fits processor `p` on top of its current
  /// commitments (policy demand test + utilization cap).
  bool fits(int p, const sched::NpTask& candidate);

  /// Candidate service budgets for a controlled stream, richest first
  /// (fractions of the latency window and multiples of the qmin
  /// minimum, share-capped; the qmin minimum always last).  A pure
  /// function of the config and the cost tables, memoized on the last
  /// (macroblocks, latency, period) key: join storms share geometry,
  /// so the ladder is built once per run, not once per verdict.  The
  /// reference is invalidated by the next call with a different key.
  const std::vector<rt::Cycles>& controlled_candidates(
      int macroblocks, rt::Cycles latency, rt::Cycles period);

  /// Appends one piece of `spec` (task, budget, migration surcharge)
  /// to processor `p`'s commitments, extending its task mirror and
  /// utilization fold, seeding its QPA busy hint with `busy_seed`, and
  /// recording the host.  The first piece fills `out` as admitted; a
  /// second one is a split's tail.
  void commit(const StreamSpec& spec, int p, const sched::NpTask& task,
              rt::Cycles table_budget, rt::Cycles surcharge,
              rt::Cycles busy_seed,
              const std::shared_ptr<const enc::EncoderSystem>& system,
              Placement* out);

  /// Calls `place(p)` over shard s's processors in sweep order until
  /// one call returns true (and then returns true): `preferred` first,
  /// then the rest in index order; with preferred = -1, least-loaded
  /// first (unpreferred_order(s), bound when the sweep starts).
  template <typename Place>
  bool sweep(int s, int preferred, Place&& place);

  /// Probe order of shard s for a stream with no preferred processor:
  /// ascending (committed utilization, index).  Cached between
  /// commitment changes — a rejection sweep re-reads the same order
  /// per candidate, so rebuilding it each time would be pure waste.
  const std::vector<int>& unpreferred_order(int s);

  /// Sweeps one candidate over shard s, commits it on the first
  /// processor it fits and fills `out`.  With `renegotiate`, a
  /// processor it does not fit first shrinks its running controlled
  /// commitments (shrink_to_fit).
  bool try_place(const StreamSpec& spec, int s, Candidate cand,
                 int preferred, bool renegotiate, Placement* out);

  /// Shrinks `p`'s controlled commitments (largest budget headroom
  /// first, one ladder step at a time) until `task` fits; rolls back
  /// and returns false if it never does.  Appends the imposed shrinks,
  /// effective at `when`, to pending_renegotiations_.
  bool shrink_to_fit(int p, const sched::NpTask& task, rt::Cycles when);

  /// C=D semi-partitioning (SchedulingSpec::split): places the stream
  /// as a zero-slack head piece (C1, D = C1, T = P) on one processor
  /// of shard s plus the remainder (cost - C1 + migration surcharge,
  /// D = K*P - C1, T = P) on a higher-indexed one of the same shard.
  /// C1 is the largest head the first processor admits (binary search
  /// over the demand test).  Commits both pieces and fills `out` on
  /// success.  Split pieces are never renegotiated, restored, or
  /// ladder-downgraded.
  bool try_place_split(const StreamSpec& spec, int s, Candidate cand,
                       Placement* out);

  /// Restore pass after a departure freed capacity on `p`: grow
  /// previously-shrunk controlled commitments back toward the budget
  /// they were admitted at, largest deficit first, one certified
  /// ladder rung at a time, while the set stays schedulable.  Appends
  /// grow records (effective at `now`) to pending_renegotiations_.
  void restore_pass(int p, rt::Cycles now);

  // ---- the ladder step shared by shrink_to_fit and restore_pass ----

  /// `p`'s commitment budgets, in commitment order.
  std::vector<rt::Cycles> budgets(int p) const;
  /// Sets a commitment's budget, keeping its migration surcharge.
  static void set_budget(Commitment& c, rt::Cycles budget);
  /// The index whose gap(i) — how far commitment i may still move — is
  /// the widest positive one, ties to the lowest stream id;
  /// cs.size() when none is positive.
  template <typename Gap>
  static std::size_t widest_gap(const std::vector<Commitment>& cs, Gap&& gap);
  /// Moves `c` to the neighbouring rung of its certified ladder: the
  /// next lower budget (the qmin minimum at the bottom), or with
  /// `grow` the next higher one, capped at the budget it was admitted
  /// at.
  void step_rung(Commitment& c, bool grow);
  /// Appends one BudgetRenegotiation, effective at `when`, for each of
  /// `p`'s commitments whose budget differs from `before`.
  void record_budget_changes(int p, const std::vector<rt::Cycles>& before,
                             rt::Cycles when, bool grow);

  // ---- routing and the fleet (shard.cpp) ----

  /// Books an admitted placement of `spec` on shard s: records the
  /// spec, counts the admit and refreshes the shard's cached view.
  void land(const StreamSpec& spec, int s, bool probed);

  /// Drops the commitments `resident` holds inside shard s (and their
  /// host entries), then runs a restore pass on each freed processor
  /// when `restore` is set.
  void retract(int stream_id, Resident& resident, int s, rt::Cycles now,
               bool restore);

  /// Rescans shard `s`: refreshes its cached floor and hottest
  /// processor, and raises its live processors' peaks.  Called after
  /// any call that changed the shard's committed state, so joins route
  /// and the rebalancer reads pressure from S cached entries instead
  /// of rescanning the whole fleet.
  void recompute_floor(int s);
  /// Fills route_ with the first `k` live shards in routing order —
  /// ascending (floor utilization, shard index) — or all of them when
  /// fewer are live: one scan of the S cached floors.
  void route(std::size_t k);

  AdmissionConfig config_;
  SchedulingSpec sched_;
  sched::SchedPolicy policy_;
  TableCache* tables_;
  std::vector<Processor> procs_;  ///< per global processor
  std::vector<Shard> shards_;
  /// Per shard, its floor processor's committed utilization
  /// (kNoSurvivor with none): the routing key, kept contiguous so the
  /// router's scan stays short.
  std::vector<double> floors_;
  static constexpr double kNoSurvivor =
      std::numeric_limits<double>::infinity();
  /// The last route(): admit()'s preferred shard and its probes.
  std::vector<int> route_;
  std::unordered_map<int, Resident> residents_;  ///< by stream id
  std::vector<BudgetRenegotiation> pending_renegotiations_;
  sched::EdfScanStats scan_stats_;
  /// Busy length reported by the most recent demand test.
  rt::Cycles last_test_busy_ = 0;
  /// controlled_candidates memo (see its doc comment).
  int cand_mb_ = -1;
  rt::Cycles cand_latency_ = 0;
  rt::Cycles cand_period_ = 0;
  std::vector<rt::Cycles> cand_cache_;
  /// place()'s candidate list, a member only so its storage is reused
  /// across verdicts (place() never nests).
  std::vector<Candidate> walk_;
  long long split_count_ = 0;
  int probe_shards_;
  double watermark_;
};

}  // namespace qosctrl::farm
