#include "farm/admission.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "farm/shard.h"
#include "util/check.h"

namespace qosctrl::farm {

TableCache::TableCache(platform::CostTable costs) : costs_(std::move(costs)) {
  wc_frame_per_mb_.resize(costs_.num_levels(), 0);
  for (std::size_t qi = 0; qi < costs_.num_levels(); ++qi) {
    rt::Cycles wc = 0;
    for (std::size_t a = 0; a < costs_.num_actions(); ++a) {
      wc += costs_.at(static_cast<rt::ActionId>(a), qi).worst_case;
    }
    wc_frame_per_mb_[qi] = wc;
  }
}

const std::shared_ptr<const enc::EncoderSystem>& TableCache::get(
    int macroblocks, rt::Cycles budget) {
  const auto key = std::make_pair(macroblocks, budget);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  auto sys = std::make_shared<const enc::EncoderSystem>(
      enc::build_encoder_system(macroblocks, budget, costs_));
  // Certification: building the tables already aborts on a budget the
  // qmin worst case cannot meet, so every cached system certifies its
  // budget (paced over it from service start, qmin is schedulable).
  QC_DCHECK(sys->tables->max_initial_delay() >= 0,
            "compiled budget does not certify the qmin worst case");
  // Map nodes are stable, so the returned reference outlives later
  // insertions; callers that keep a system copy the shared_ptr.
  return cache_.emplace(key, std::move(sys)).first->second;
}

rt::Cycles TableCache::min_budget(int macroblocks) const {
  return static_cast<rt::Cycles>(macroblocks) * wc_frame_per_mb_.front();
}

rt::Cycles TableCache::worst_case_frame_cost(int macroblocks,
                                             std::size_t qi) const {
  QC_EXPECT(qi < wc_frame_per_mb_.size(),
            "quality index out of range for cost table");
  return static_cast<rt::Cycles>(macroblocks) * wc_frame_per_mb_[qi];
}

// ---- ShardedControlPlane: admission inside one shard's range ----

void ShardedControlPlane::refresh(int p) {
  Processor& pr = procs_[static_cast<std::size_t>(p)];
  pr.tasks.clear();
  pr.tasks.reserve(pr.commitments.size() + 1);
  pr.util = 0.0;
  for (const Commitment& c : pr.commitments) {
    pr.tasks.push_back(c.task);
    pr.util += static_cast<double>(c.task.cost) /
               static_cast<double>(c.task.period);
  }
  pr.busy_hint = 0;
  shards_[static_cast<std::size_t>(shard_of(p))].unpreferred_dirty = true;
}

std::vector<int> ShardedControlPlane::resident_stream_ids(
    int processor) const {
  std::vector<int> ids;
  for (const Commitment& c :
       procs_.at(static_cast<std::size_t>(processor)).commitments) {
    ids.push_back(c.stream_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<CertifiedRung> ShardedControlPlane::certified_ladder(
    int macroblocks, rt::Cycles latency, rt::Cycles period) {
  std::vector<CertifiedRung> ladder;
  for (const rt::Cycles b :
       controlled_candidates(macroblocks, latency, period)) {
    ladder.push_back(CertifiedRung{b, tables_->get(macroblocks, b)});
  }
  return ladder;
}

bool ShardedControlPlane::demand_test(int p) {
  Processor& pr = procs_[static_cast<std::size_t>(p)];
  ++shards_[static_cast<std::size_t>(shard_of(p))].stats.demand_tests;
  last_test_busy_ = 0;
  const sched::DemandQuery query{&scan_stats_, pr.busy_hint,
                                 &last_test_busy_};
  return policy_.schedulable(pr.tasks, query);
}

bool ShardedControlPlane::fits(int p, const sched::NpTask& candidate) {
  Processor& pr = procs_[static_cast<std::size_t>(p)];
  if (pr.failed) return false;
  // Candidate last, exactly where a full rebuild would put it.
  const double util =
      pr.util + static_cast<double>(candidate.cost) /
                    static_cast<double>(candidate.period);
  if (util > config_.utilization_cap) return false;
  pr.tasks.push_back(candidate);
  const bool ok = demand_test(p);
  pr.tasks.pop_back();
  return ok;
}

const std::vector<rt::Cycles>& ShardedControlPlane::controlled_candidates(
    int macroblocks, rt::Cycles latency, rt::Cycles period) {
  if (macroblocks == cand_mb_ && latency == cand_latency_ &&
      period == cand_period_) {
    return cand_cache_;
  }
  // Candidate service budgets, richest first; rounded down to a
  // multiple of the macroblock count so the evenly paced deadlines
  // divide exactly, with the qmin-minimal budget as last resort.
  const rt::Cycles min_budget = tables_->min_budget(macroblocks);
  std::vector<rt::Cycles> candidates;
  const double share_cap =
      config_.max_stream_share * static_cast<double>(period);
  auto add_candidate = [&](double cycles) {
    // Past the window whatever the rounding; checked in double so a
    // huge ladder entry never reaches the integer cast.
    if (cycles >= static_cast<double>(latency) + 1.0) return;
    const rt::Cycles b =
        (static_cast<rt::Cycles>(cycles) / macroblocks) * macroblocks;
    if (b >= min_budget && b <= latency &&
        static_cast<double>(b) <= share_cap) {
      candidates.push_back(b);
    }
  };
  for (const double f : config_.budget_fractions) {
    add_candidate(static_cast<double>(latency) * f);
  }
  for (const double m : config_.min_budget_multiples) {
    add_candidate(static_cast<double>(min_budget) * m);
  }
  if (min_budget <= latency) candidates.push_back(min_budget);
  std::sort(candidates.begin(), candidates.end(),
            std::greater<rt::Cycles>());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  cand_mb_ = macroblocks;
  cand_latency_ = latency;
  cand_period_ = period;
  cand_cache_ = std::move(candidates);
  return cand_cache_;
}

std::vector<rt::Cycles> ShardedControlPlane::budgets(int p) const {
  std::vector<rt::Cycles> out;
  for (const Commitment& c : procs_[static_cast<std::size_t>(p)].commitments) {
    out.push_back(c.table_budget);
  }
  return out;
}

void ShardedControlPlane::set_budget(Commitment& c, rt::Cycles budget) {
  c.table_budget = budget;
  c.task.cost = budget + c.migration_surcharge;
}

template <typename Gap>
std::size_t ShardedControlPlane::widest_gap(const std::vector<Commitment>& cs,
                                            Gap&& gap) {
  std::size_t victim = cs.size();
  rt::Cycles widest = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const rt::Cycles g = gap(i);
    if (g <= 0) continue;
    if (g > widest ||
        (g == widest && cs[i].stream_id < cs[victim].stream_id)) {
      victim = i;
      widest = g;
    }
  }
  return victim;
}

void ShardedControlPlane::step_rung(Commitment& c, bool grow) {
  // The ladder runs richest first: a shrink takes the first budget
  // below the current one, a grow the last one above it.
  rt::Cycles next = grow ? c.desired_budget : c.min_budget;
  for (const rt::Cycles b : controlled_candidates(
           c.macroblocks, c.task.deadline, c.task.period)) {
    if (!grow && b < c.table_budget) {
      next = b;
      break;
    }
    if (grow && b > c.table_budget && b <= c.desired_budget) next = b;
  }
  set_budget(c, next);
}

void ShardedControlPlane::record_budget_changes(
    int p, const std::vector<rt::Cycles>& before, rt::Cycles when, bool grow) {
  const auto& cs = procs_[static_cast<std::size_t>(p)].commitments;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const Commitment& c = cs[i];
    if (c.table_budget == before[i]) continue;
    pending_renegotiations_.push_back(
        BudgetRenegotiation{c.stream_id, when, c.table_budget, c.task.cost,
                            grow, tables_->get(c.macroblocks, c.table_budget)});
  }
}

void ShardedControlPlane::commit(
    const StreamSpec& spec, int p, const sched::NpTask& task,
    rt::Cycles table_budget, rt::Cycles surcharge, rt::Cycles busy_seed,
    const std::shared_ptr<const enc::EncoderSystem>& system, Placement* out) {
  Commitment c;
  c.stream_id = spec.id;
  c.task = task;
  // Split pieces are never renegotiated, restored or downgraded.
  c.controlled = spec.mode == pipe::ControlMode::kControlled && !out->split;
  c.macroblocks = macroblocks_of(spec);
  c.table_budget = table_budget;
  c.min_budget = tables_->min_budget(c.macroblocks);
  c.desired_budget = table_budget;
  c.migration_surcharge = surcharge;
  Processor& pr = procs_[static_cast<std::size_t>(p)];
  pr.commitments.push_back(std::move(c));
  // An append extends the fold: tasks and utilization come out exactly
  // as refresh() would rebuild them.
  pr.tasks.push_back(task);
  pr.util += static_cast<double>(task.cost) /
             static_cast<double>(task.period);
  pr.busy_hint = busy_seed;
  shards_[static_cast<std::size_t>(shard_of(p))].unpreferred_dirty = true;
  residents_[spec.id].hosts.push_back(p);
  if (out->admitted) {  // a split's second piece: the tail
    out->tail_processor = p;
    out->tail_cost = task.cost;
    out->committed_cost += task.cost;
    return;
  }
  out->admitted = true;
  out->processor = p;
  out->committed_cost = task.cost;
  out->table_budget = table_budget;
  out->initial_quality = system->tables->initial_quality();
  out->system = system;
}

const std::vector<int>& ShardedControlPlane::unpreferred_order(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  if (!sh.unpreferred_dirty) return sh.unpreferred;
  std::vector<std::pair<double, int>> keyed;
  keyed.reserve(static_cast<std::size_t>(sh.size));
  for (int p = sh.base; p < sh.base + sh.size; ++p) {
    keyed.emplace_back(procs_[static_cast<std::size_t>(p)].util, p);
  }
  std::sort(keyed.begin(), keyed.end());
  sh.unpreferred.clear();
  sh.unpreferred.reserve(keyed.size());
  for (const auto& [u, p] : keyed) sh.unpreferred.push_back(p);
  sh.unpreferred_dirty = false;
  return sh.unpreferred;
}

template <typename Place>
bool ShardedControlPlane::sweep(int s, int preferred, Place&& host) {
  // Bound once per sweep: shrinks inside a renegotiating sweep dirty
  // the cached order, but nothing re-reads it until the next sweep.
  static const std::vector<int> kNoOrder;
  const std::vector<int>& unpreferred =
      preferred < 0 ? unpreferred_order(s) : kNoOrder;
  const int base = shards_[static_cast<std::size_t>(s)].base;
  const int size = shards_[static_cast<std::size_t>(s)].size;
  const int local = preferred - base;
  for (int k = 0; k < size; ++k) {
    const int p = preferred < 0
                      ? unpreferred[static_cast<std::size_t>(k)]
                      : base + (k == 0 ? local
                                       : (k - 1 < local ? k - 1 : k));
    if (host(p)) return true;
  }
  return false;
}

bool ShardedControlPlane::try_place(const StreamSpec& spec, int s,
                                    Candidate cand, int preferred,
                                    bool renegotiate, Placement* out) {
  // The compiled system certifies the budget (TableCache::get) and is
  // processor-independent, so it is fetched once before any demand test.
  const auto& system = tables_->get(macroblocks_of(spec), cand.budget);

  return sweep(s, preferred, [&](int p) {
    // An off-preferred host charges the migration surcharge on top of
    // the stream's own worst case.
    const rt::Cycles surcharge = p != preferred ? config_.migration_cost : 0;
    const sched::NpTask task{cand.cost + surcharge, latency_of(spec),
                             period_of(spec)};
    if (!fits(p, task) &&
        !(renegotiate && shrink_to_fit(p, task, spec.join_time))) {
      return false;
    }
    // The admitting test ran over exactly the new committed set, so its
    // busy length is this set's true busy length: the best warm seed.
    commit(spec, p, task, cand.budget, surcharge, last_test_busy_, system,
           out);
    out->migrated = p != preferred;
    out->via_renegotiation = renegotiate;
    return true;
  });
}

bool ShardedControlPlane::shrink_to_fit(int p, const sched::NpTask& task,
                                        rt::Cycles when) {
  // Shrink incumbents until the newcomer fits: the controlled
  // commitment with the largest budget headroom moves one certified
  // rung down at a time.  Every step strictly lowers a budget, so the
  // loop terminates; shrinking only removes demand, so the surviving
  // set stays schedulable.
  auto& cs = procs_[static_cast<std::size_t>(p)].commitments;
  const std::vector<rt::Cycles> before = budgets(p);
  bool ok = false;
  while (!ok) {
    const std::size_t v = widest_gap(cs, [&](std::size_t i) {
      return cs[i].controlled ? cs[i].table_budget - cs[i].min_budget : 0;
    });
    if (v == cs.size()) break;  // all headroom exhausted
    step_rung(cs[v], /*grow=*/false);
    refresh(p);
    ok = fits(p, task);
  }
  if (ok) {
    record_budget_changes(p, before, when, /*grow=*/false);
    return true;
  }
  for (std::size_t i = 0; i < cs.size(); ++i) {  // roll back the shrinks
    if (cs[i].table_budget != before[i]) set_budget(cs[i], before[i]);
  }
  refresh(p);
  return false;
}

bool ShardedControlPlane::try_place_split(const StreamSpec& spec, int s,
                                          Candidate cand, Placement* out) {
  const int first = shards_[static_cast<std::size_t>(s)].base;
  const int end = first + shards_[static_cast<std::size_t>(s)].size;
  if (!sched_.split || end - first < 2 || cand.cost < 2) return false;
  const auto& system = tables_->get(macroblocks_of(spec), cand.budget);

  const rt::Cycles latency = latency_of(spec);
  const rt::Cycles period = period_of(spec);
  for (int a = first; a + 1 < end; ++a) {
    if (procs_[static_cast<std::size_t>(a)].failed) continue;
    // Largest zero-slack head piece processor `a` admits.  The
    // schedulability of (C1, D = C1, T = P) is not monotone in C1 in
    // general, so the binary search is a heuristic for picking C1 —
    // but every kept midpoint passed the real demand test, so the
    // chosen head is always genuinely admissible.
    rt::Cycles lo = 1;
    rt::Cycles hi = cand.cost - 1;  // head < cost: a genuine split
    rt::Cycles head = 0;
    while (lo <= hi) {
      const rt::Cycles mid = lo + (hi - lo) / 2;
      if (fits(a, sched::NpTask{mid, mid, period})) {
        head = mid;
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
    if (head <= 0) continue;

    // Shrinking the head moves cost and deadline of the tail by the
    // same amount (its slack is the constant K*P - C - migration), so
    // there is nothing to search on the tail side: try the remainder
    // on every higher-indexed processor of the shard.  The index
    // order — head below tail — is what lets the data plane simulate
    // handoff sources before sinks.
    const sched::NpTask tail{cand.cost - head + config_.migration_cost,
                             latency - head, period};
    for (int b = a + 1; b < end; ++b) {
      if (procs_[static_cast<std::size_t>(b)].failed) continue;
      if (!fits(b, tail)) continue;
      // Both pieces leave their processor's next QPA test cold (seed
      // 0): the head's last probe may have been a rejected midpoint,
      // and the tail keeps the seed the reported scan counters
      // (admission_busy_iterations, admission_qpa_points) were pinned
      // with.
      out->split = true;
      out->migrated = true;  // the frame crosses processors each period
      out->head_cost = head;
      commit(spec, a, sched::NpTask{head, head, period}, cand.budget, 0, 0,
             system, out);
      commit(spec, b, tail, cand.budget, config_.migration_cost, 0, system,
             out);
      ++split_count_;
      return true;
    }
  }
  return false;
}

Placement ShardedControlPlane::place(const StreamSpec& spec, int s,
                                     int preferred, bool renegotiate) {
  QC_EXPECT(macroblocks_of(spec) >= 1,
            "stream geometry must cover at least one macroblock");
  Placement out;

  const int mb = macroblocks_of(spec);
  const rt::Cycles latency = latency_of(spec);
  const bool controlled = spec.mode == pipe::ControlMode::kControlled;

  // The candidates, richest first.  A controlled stream offers its
  // certified ladder (copied: the shrink loop's ladder lookups replace
  // the memoized one), each rung at its own cost.  An uncontrolled
  // stream has no compiled occupancy bound below its level's full
  // worst case, so it offers that one cost; feedback control may pick
  // any level, so it must be assumed to run at qmax.
  std::vector<Candidate>& candidates = walk_;
  candidates.clear();
  std::size_t qi = 0;
  if (controlled) {
    for (const rt::Cycles b :
         controlled_candidates(mb, latency, period_of(spec))) {
      candidates.push_back(Candidate{b, b});
    }
  } else {
    if (spec.mode == pipe::ControlMode::kConstantQuality &&
        (spec.constant_quality < 0 ||
         static_cast<std::size_t>(spec.constant_quality) >=
             tables_->num_quality_levels())) {
      // Reject here rather than clamp: the data plane's controller
      // would refuse the level anyway.
      out.reason = "constant quality level outside the system's Q";
      return out;
    }
    qi = spec.mode == pipe::ControlMode::kConstantQuality
             ? static_cast<std::size_t>(spec.constant_quality)
             : tables_->num_quality_levels() - 1;
    const rt::Cycles cost = tables_->worst_case_frame_cost(mb, qi);
    if (cost > latency) {
      out.reason = "worst-case frame cost exceeds the latency window";
      return out;
    }
    candidates.push_back(Candidate{
        std::max((latency / mb) * mb, tables_->min_budget(mb)), cost});
  }

  // Each candidate whole (preferred processor first, then migrated),
  // then as C=D head + tail pieces — a budget no single processor can
  // host may still fit split, keeping the stream at this quality —
  // before the next, cheaper one: quality before locality.
  std::size_t rung = 0;
  while (rung < candidates.size() &&
         !try_place(spec, s, candidates[rung], preferred, false, &out) &&
         !try_place_split(spec, s, candidates[rung], &out)) {
    ++rung;
  }
  bool ok = rung < candidates.size();
  // Renegotiation is a last resort: the newcomer enters at its
  // cheapest candidate (for a controlled stream the qmin minimum,
  // always certifiable), which minimizes the shrink imposed on
  // incumbents.  Schedulability is monotone in the newcomer's cost, so
  // if that fails, every richer candidate fails too.
  if (!ok && renegotiate && !candidates.empty()) {
    rung = candidates.size() - 1;
    ok = try_place(spec, s, candidates[rung], preferred, true, &out);
  }
  if (!ok) {
    out.reason = !controlled ? "no processor can host the worst-case frame cost"
                 : candidates.empty()
                     ? "latency window below the qmin worst case"
                     : "no processor can host any candidate budget";
    return out;
  }
  if (controlled) {
    out.degraded = rung > 0;
  } else {
    // The slack-table prediction does not apply: an uncontrolled
    // stream encodes at its fixed level (resp. wherever feedback
    // drives it), not at what the tables would grant.
    out.initial_quality = qi;
  }
  return out;
}

void ShardedControlPlane::restore_pass(int p, rt::Cycles now) {
  // A dead processor serves nothing: growing its residents' budgets
  // would only inflate commitments the failure handler is about to
  // release.
  if (procs_[static_cast<std::size_t>(p)].failed) return;
  // Inverse of the shrink loop: grow the incumbent with the largest
  // deficit below the budget it was admitted at one certified rung,
  // keep it if the processor stays schedulable, and stop considering a
  // stream whose next rung does not fit (larger rungs only demand
  // more).  Each iteration either raises a budget or retires a
  // stream, so the loop terminates.
  auto& cs = procs_[static_cast<std::size_t>(p)].commitments;
  const std::vector<rt::Cycles> before = budgets(p);
  std::vector<bool> retired(cs.size(), false);
  for (;;) {
    const std::size_t v = widest_gap(cs, [&](std::size_t i) {
      return cs[i].controlled && !retired[i]
                 ? cs[i].desired_budget - cs[i].table_budget
                 : 0;
    });
    if (v == cs.size()) break;  // nothing left below its target
    const rt::Cycles from = cs[v].table_budget;
    step_rung(cs[v], /*grow=*/true);
    refresh(p);
    if (procs_[static_cast<std::size_t>(p)].util > config_.utilization_cap ||
        !demand_test(p)) {
      set_budget(cs[v], from);
      refresh(p);
      retired[v] = true;
    }
  }
  record_budget_changes(p, before, now, /*grow=*/true);
}

}  // namespace qosctrl::farm
