#include "farm/admission.h"

#include <algorithm>
#include <cmath>
#include <functional>

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

bool ShardedControlPlane::set_schedulable(int p) {
  if (procs_[static_cast<std::size_t>(p)].util > config_.utilization_cap) {
    return false;
  }
  return demand_test(p);
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

void ShardedControlPlane::commit_and_fill(
    const StreamSpec& spec, const sched::NpTask& task,
    rt::Cycles table_budget, int p, int preferred,
    std::shared_ptr<const enc::EncoderSystem> system, Placement* out) {
  Commitment c;
  c.stream_id = spec.id;
  c.task = task;
  c.controlled = spec.mode == pipe::ControlMode::kControlled;
  c.macroblocks = macroblocks_of(spec);
  c.table_budget = table_budget;
  c.min_budget = tables_->min_budget(c.macroblocks);
  c.desired_budget = table_budget;
  c.migration_surcharge = p != preferred ? config_.migration_cost : 0;
  Processor& pr = procs_[static_cast<std::size_t>(p)];
  pr.commitments.push_back(std::move(c));
  // An append extends the fold; the admitting test ran over exactly
  // the new committed set, so its busy length is this set's true busy
  // length — the best warm seed.
  pr.tasks.push_back(task);
  pr.util += static_cast<double>(task.cost) /
             static_cast<double>(task.period);
  pr.busy_hint = last_test_busy_;
  shards_[static_cast<std::size_t>(shard_of(p))].unpreferred_dirty = true;
  residents_[spec.id].hosts.push_back(p);
  out->admitted = true;
  out->processor = p;
  out->committed_cost = task.cost;
  out->table_budget = table_budget;
  out->migrated = p != preferred;
  out->initial_quality = system->tables->initial_quality();
  out->system = std::move(system);
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
                                    rt::Cycles table_budget, rt::Cycles cost,
                                    int preferred, Placement* out) {
  // The compiled system certifies the budget (TableCache::get) and is
  // processor-independent, so it is fetched once before any demand test.
  const auto& system = tables_->get(macroblocks_of(spec), table_budget);

  return sweep(s, preferred, [&](int p) {
    // An off-preferred host charges the migration surcharge on top of
    // the stream's own worst case.
    const sched::NpTask task{
        cost + (p != preferred ? config_.migration_cost : 0),
        latency_of(spec), period_of(spec)};
    if (!fits(p, task)) return false;
    commit_and_fill(spec, task, table_budget, p, preferred, system, out);
    return true;
  });
}

bool ShardedControlPlane::try_place_renegotiating(const StreamSpec& spec,
                                                  int s,
                                                  rt::Cycles table_budget,
                                                  rt::Cycles cost,
                                                  int preferred,
                                                  Placement* out) {
  const auto& system = tables_->get(macroblocks_of(spec), table_budget);

  return sweep(s, preferred, [&](int p) {
    const sched::NpTask task{
        cost + (p != preferred ? config_.migration_cost : 0),
        latency_of(spec), period_of(spec)};
    auto& cs = procs_[static_cast<std::size_t>(p)].commitments;
    const std::vector<Commitment> saved = cs;

    // Shrink incumbents until the newcomer fits: pick the controlled
    // commitment with the largest budget headroom (ties to the lowest
    // stream id) and move it one certified ladder step down.  Every
    // step strictly lowers a budget, so the loop terminates; shrinking
    // only removes demand, so the surviving set stays schedulable.
    bool ok = fits(p, task);
    while (!ok) {
      Commitment* victim = nullptr;
      for (Commitment& c : cs) {
        if (!c.controlled || c.table_budget <= c.min_budget) continue;
        if (victim == nullptr ||
            c.table_budget - c.min_budget >
                victim->table_budget - victim->min_budget ||
            (c.table_budget - c.min_budget ==
                 victim->table_budget - victim->min_budget &&
             c.stream_id < victim->stream_id)) {
          victim = &c;
        }
      }
      if (victim == nullptr) break;  // all headroom exhausted

      // The next candidate below the current budget (the ladder is
      // sorted richest first); its tables are compiled only if the
      // shrink sticks, for the record below.
      rt::Cycles next = victim->min_budget;
      for (const rt::Cycles b : controlled_candidates(
               victim->macroblocks, victim->task.deadline,
               victim->task.period)) {
        if (b < victim->table_budget) {
          next = b;
          break;
        }
      }
      victim->table_budget = next;
      victim->task.cost = next + victim->migration_surcharge;
      refresh(p);
      ok = fits(p, task);
    }
    if (!ok) {
      cs = saved;  // roll back this processor's shrinks
      refresh(p);
      return false;
    }

    // Record one shrink per incumbent whose budget actually moved.
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (cs[i].table_budget == saved[i].table_budget) continue;
      BudgetRenegotiation r;
      r.stream_id = cs[i].stream_id;
      r.effective_time = spec.join_time;
      r.table_budget = cs[i].table_budget;
      r.committed_cost = cs[i].task.cost;
      r.system = tables_->get(cs[i].macroblocks, cs[i].table_budget);
      pending_renegotiations_.push_back(std::move(r));
    }

    commit_and_fill(spec, task, table_budget, p, preferred, system, out);
    out->via_renegotiation = true;
    return true;
  });
}

bool ShardedControlPlane::try_place_split(const StreamSpec& spec, int s,
                                          rt::Cycles table_budget,
                                          rt::Cycles cost, Placement* out) {
  const int first = shards_[static_cast<std::size_t>(s)].base;
  const int end = first + shards_[static_cast<std::size_t>(s)].size;
  if (!sched_.split || end - first < 2 || cost < 2) return false;
  const int mb = macroblocks_of(spec);
  const auto& system = tables_->get(mb, table_budget);

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
    rt::Cycles hi = cost - 1;  // head < cost: a genuine split
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
    const sched::NpTask tail{cost - head + config_.migration_cost,
                             latency - head, period};
    for (int b = a + 1; b < end; ++b) {
      if (procs_[static_cast<std::size_t>(b)].failed) continue;
      if (!fits(b, tail)) continue;

      const sched::NpTask head_task{head, head, period};
      Commitment piece;
      piece.stream_id = spec.id;
      piece.task = head_task;
      piece.controlled = false;  // split pieces never renegotiate
      piece.macroblocks = mb;
      piece.table_budget = table_budget;
      piece.min_budget = tables_->min_budget(mb);
      piece.desired_budget = table_budget;
      piece.migration_surcharge = 0;
      procs_[static_cast<std::size_t>(a)].commitments.push_back(piece);
      refresh(a);
      piece.task = tail;
      piece.migration_surcharge = config_.migration_cost;
      procs_[static_cast<std::size_t>(b)].commitments.push_back(piece);
      refresh(b);
      auto& hosts = residents_[spec.id].hosts;
      hosts.push_back(a);
      hosts.push_back(b);
      ++split_count_;

      out->admitted = true;
      out->processor = a;
      out->tail_processor = b;
      out->split = true;
      out->head_cost = head;
      out->tail_cost = tail.cost;
      out->committed_cost = head + tail.cost;
      out->table_budget = table_budget;
      out->migrated = true;  // the frame crosses processors each period
      out->initial_quality = system->tables->initial_quality();
      out->system = system;
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
  const rt::Cycles min_budget = tables_->min_budget(mb);

  if (spec.mode == pipe::ControlMode::kControlled) {
    const std::vector<rt::Cycles> candidates =
        controlled_candidates(mb, latency, period_of(spec));
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (try_place(spec, s, candidates[i], candidates[i], preferred,
                    &out)) {
        out.degraded = i > 0;
        return out;
      }
      // C=D semi-partitioning before degradation: a budget no single
      // processor can host whole may still fit as head + tail pieces,
      // keeping the stream at this quality instead of dropping to the
      // next candidate.
      if (try_place_split(spec, s, candidates[i], candidates[i], &out)) {
        out.degraded = i > 0;
        return out;
      }
    }
    // Renegotiation is a last resort: the newcomer enters at its
    // cheapest budget — the qmin minimum, always last in the ladder
    // and always certifiable — which minimizes the shrink imposed on
    // incumbents.  Schedulability is monotone in the newcomer's cost,
    // so if that fails, every richer candidate fails too.
    if (renegotiate && !candidates.empty() &&
        try_place_renegotiating(spec, s, candidates.back(),
                                candidates.back(), preferred, &out)) {
      out.degraded = candidates.size() > 1;
      return out;
    }
    out.reason = candidates.empty()
                     ? "latency window below the qmin worst case"
                     : "no processor can host any candidate budget";
    return out;
  }

  // Uncontrolled streams have no compiled occupancy bound below their
  // level's full worst case; commit that.  Feedback control may pick
  // any level, so it must be assumed to run at qmax.
  if (spec.mode == pipe::ControlMode::kConstantQuality &&
      (spec.constant_quality < 0 ||
       static_cast<std::size_t>(spec.constant_quality) >=
           tables_->num_quality_levels())) {
    // Reject here rather than clamp: the data plane's controller
    // would refuse the level anyway.
    out.reason = "constant quality level outside the system's Q";
    return out;
  }
  const std::size_t qi =
      spec.mode == pipe::ControlMode::kConstantQuality
          ? static_cast<std::size_t>(spec.constant_quality)
          : tables_->num_quality_levels() - 1;
  const rt::Cycles cost = tables_->worst_case_frame_cost(mb, qi);
  const rt::Cycles table_budget = std::max((latency / mb) * mb, min_budget);
  if (cost > latency) {
    out.reason = "worst-case frame cost exceeds the latency window";
    return out;
  }
  if (try_place(spec, s, table_budget, cost, preferred, &out) ||
      try_place_split(spec, s, table_budget, cost, &out) ||
      (renegotiate && try_place_renegotiating(spec, s, table_budget, cost,
                                              preferred, &out))) {
    // The slack-table prediction does not apply: an uncontrolled
    // stream encodes at its fixed level (resp. wherever feedback
    // drives it), not at what the tables would grant.
    out.initial_quality = qi;
    return out;
  }
  out.reason = "no processor can host the worst-case frame cost";
  return out;
}

void ShardedControlPlane::restore_pass(int p, rt::Cycles now) {
  // A dead processor serves nothing: growing its residents' budgets
  // would only inflate commitments the failure handler is about to
  // release.
  if (procs_[static_cast<std::size_t>(p)].failed) return;
  // Inverse of the shrink loop in try_place_renegotiating: grow the
  // incumbent with the largest deficit below the budget it was
  // admitted at (ties to the lowest stream id) one certified ladder
  // rung, keep it if the processor stays schedulable, and stop
  // considering a stream whose next rung does not fit (larger rungs
  // only demand more).  Each iteration either raises a budget or
  // retires a stream, so the loop terminates.
  auto& cs = procs_[static_cast<std::size_t>(p)].commitments;
  std::vector<bool> retired(cs.size(), false);
  std::vector<rt::Cycles> grown_from(cs.size(), 0);
  std::vector<bool> grown(cs.size(), false);
  for (;;) {
    std::size_t victim = cs.size();
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const Commitment& c = cs[i];
      if (retired[i] || !c.controlled ||
          c.table_budget >= c.desired_budget) {
        continue;
      }
      if (victim == cs.size() ||
          c.desired_budget - c.table_budget >
              cs[victim].desired_budget - cs[victim].table_budget ||
          (c.desired_budget - c.table_budget ==
               cs[victim].desired_budget - cs[victim].table_budget &&
           c.stream_id < cs[victim].stream_id)) {
        victim = i;
      }
    }
    if (victim == cs.size()) break;  // nothing left below its target

    Commitment& c = cs[victim];
    // Smallest candidate strictly above the current budget (the
    // ladder is sorted richest first), capped at the budget the stream
    // was admitted with.
    rt::Cycles next = c.desired_budget;
    for (const rt::Cycles b :
         controlled_candidates(c.macroblocks, c.task.deadline,
                               c.task.period)) {
      if (b > c.table_budget && b <= c.desired_budget) next = b;
    }
    const rt::Cycles saved_budget = c.table_budget;
    const rt::Cycles saved_cost = c.task.cost;
    c.table_budget = next;
    c.task.cost = next + c.migration_surcharge;
    refresh(p);
    if (!set_schedulable(p)) {
      c.table_budget = saved_budget;
      c.task.cost = saved_cost;
      refresh(p);
      retired[victim] = true;
      continue;
    }
    if (!grown[victim]) {
      grown[victim] = true;
      grown_from[victim] = saved_budget;
    }
  }

  // One grow record per stream whose budget actually moved.
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (!grown[i] || cs[i].table_budget == grown_from[i]) continue;
    BudgetRenegotiation r;
    r.stream_id = cs[i].stream_id;
    r.effective_time = now;
    r.table_budget = cs[i].table_budget;
    r.committed_cost = cs[i].task.cost;
    r.grow = true;
    r.system = tables_->get(cs[i].macroblocks, cs[i].table_budget);
    pending_renegotiations_.push_back(std::move(r));
  }
}

}  // namespace qosctrl::farm
