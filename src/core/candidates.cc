#include "core/candidates.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace traceweaver {
namespace {

template <typename T>
using ArenaVec = std::vector<T, ArenaStlAllocator<T>>;
using ArenaIdSet =
    std::unordered_set<SpanId, std::hash<SpanId>, std::equal_to<SpanId>,
                       ArenaStlAllocator<SpanId>>;

struct DfsState {
  const Span* parent = nullptr;
  const InvocationPlan* plan = nullptr;
  const PositionPools* pools = nullptr;
  const EnumerationOptions* options = nullptr;
  const std::vector<InvocationPlan::Position>* positions = nullptr;

  // Per-enumeration scratch, arena-backed: these stacks live only for the
  // DFS and are bounded by the plan depth, so they bump-allocate from the
  // caller's (or a small local) arena instead of the heap.
  ArenaVec<SpanId> current;
  ArenaVec<const Span*> current_spans;
  ArenaIdSet used;
  std::size_t skips = 0;
  std::vector<CandidateMapping>* results = nullptr;
  EnumerationStats stats;

  explicit DfsState(ArenaAllocator* arena)
      : current(ArenaStlAllocator<SpanId>(arena)),
        current_spans(ArenaStlAllocator<const Span*>(arena)),
        used(0, std::hash<SpanId>(), std::equal_to<SpanId>(),
             ArenaStlAllocator<SpanId>(arena)) {}
};

/// DFS over plan positions. `stage_lb` is the earliest time a call in the
/// current stage may depart (enabling-event time); `max_recv` is the latest
/// child completion seen across all previous positions.
void Dfs(DfsState& state, std::size_t pos_idx, TimeNs stage_lb,
         TimeNs max_recv) {
  if (state.results->size() >= state.options->total_cap) return;
  ++state.stats.dfs_nodes;
  if (pos_idx == state.positions->size()) {
    CandidateMapping m;
    m.children.assign(state.current.begin(), state.current.end());
    m.skips = state.skips;
    state.results->push_back(std::move(m));
    if (state.options->resolved_out != nullptr) {
      state.options->resolved_out->insert(state.options->resolved_out->end(),
                                          state.current_spans.begin(),
                                          state.current_spans.end());
    }
    return;
  }

  const auto& pos = (*state.positions)[pos_idx];
  // Entering a new stage: with dependency order on, its calls may only
  // depart after every previous stage's call has completed.
  if (state.options->use_order_constraints && pos.call == 0 && pos_idx > 0) {
    stage_lb = std::max(stage_lb, max_recv);
  }
  const TimeNs lb = state.options->use_order_constraints
                        ? stage_lb
                        : state.parent->server_recv;

  // Pinned position (partial instrumentation): take the known child and
  // move on -- no alternatives, no skip.
  if (state.options->forced != nullptr &&
      (*state.options->forced)[pos_idx] != nullptr) {
    const Span* child = (*state.options->forced)[pos_idx];
    state.current.push_back(child->id);
    state.current_spans.push_back(child);
    Dfs(state, pos_idx + 1, stage_lb,
        std::max(max_recv, child->client_recv));
    state.current_spans.pop_back();
    state.current.pop_back();
    return;
  }

  const std::vector<const Span*>& pool = *(*state.pools)[pos_idx];
  const DurationNs slack = state.options->position_slack != nullptr
                               ? (*state.options->position_slack)[pos_idx]
                               : state.options->slack;
  // Children with client_send in [lb - slack, parent.server_send + slack];
  // nearest first.
  const auto first = std::lower_bound(
      pool.begin(), pool.end(), lb - slack, [](const Span* s, TimeNs t) {
        return s->client_send < t;
      });
  std::size_t branched = 0;
  for (auto it = first; it != pool.end(); ++it) {
    const Span* child = *it;
    if (child->client_send > state.parent->server_send + slack) break;
    if (child->client_recv > state.parent->server_send + slack) continue;
    if (state.options->require_thread_match &&
        child->caller_thread != state.parent->handler_thread) {
      continue;
    }
    if (state.used.count(child->id) > 0) continue;
    if (branched >= state.options->branch_cap) {
      ++state.stats.branch_limited;
      break;
    }
    ++branched;

    state.current.push_back(child->id);
    state.current_spans.push_back(child);
    state.used.insert(child->id);
    Dfs(state, pos_idx + 1, stage_lb,
        std::max(max_recv, child->client_recv));
    state.used.erase(child->id);
    state.current_spans.pop_back();
    state.current.pop_back();
    if (state.results->size() >= state.options->total_cap) return;
  }

  // Skip branch (after the real candidates, so complete mappings are
  // explored first).
  const BackendCall& call = state.plan->At(pos);
  if (call.optional || state.options->allow_all_skips) {
    state.current.push_back(kSkippedChild);
    state.current_spans.push_back(nullptr);
    ++state.skips;
    Dfs(state, pos_idx + 1, stage_lb, max_recv);
    --state.skips;
    state.current_spans.pop_back();
    state.current.pop_back();
  }
}

}  // namespace

void AdjustForSampling(double rate, double& skip_lp, double& keep_lp) {
  if (rate >= 1.0) return;  // Bit-identical no-op for unsampled streams.
  const double r = std::max(rate, 1e-4);
  const double s = std::exp(skip_lp);
  skip_lp = std::log(s + (1.0 - s) * (1.0 - r));
  keep_lp += std::log(r);
}

std::vector<CandidateMapping> EnumerateCandidates(
    const Span& parent, const InvocationPlan& plan,
    const PositionPools& pools, const EnumerationOptions& options) {
  std::vector<CandidateMapping> results;
  // Stand-alone callers (tests, cold paths) get a small local arena; the
  // optimizer passes a per-worker arena it resets between tasks.
  ArenaAllocator local(4 * 1024);
  ArenaAllocator* arena =
      options.scratch != nullptr ? options.scratch : &local;
  std::vector<InvocationPlan::Position> own_positions;
  if (options.positions == nullptr) own_positions = plan.Positions();
  DfsState state(arena);
  state.parent = &parent;
  state.plan = &plan;
  state.pools = &pools;
  state.options = &options;
  state.positions =
      options.positions != nullptr ? options.positions : &own_positions;
  state.results = &results;
  Dfs(state, 0, parent.server_recv, parent.server_recv);
  if (options.stats != nullptr) {
    options.stats->dfs_nodes += state.stats.dfs_nodes;
    options.stats->branch_limited += state.stats.branch_limited;
    if (results.size() >= options.total_cap) ++options.stats->total_capped;
  }
  return results;
}

CandidateGapTable BuildGapTable(
    const Span& parent,
    const std::vector<InvocationPlan::Position>& positions,
    const Span* const* resolved, std::size_t num_candidates,
    bool use_order_constraints) {
  CandidateGapTable t;
  const std::size_t np = positions.size();
  t.num_candidates = num_candidates;
  t.num_positions = np;
  t.gaps.assign(np * num_candidates, 0.0);
  t.filled.assign(np * num_candidates, 0);
  t.thread_match.assign(np * num_candidates, 0);
  t.response_gap.assign(num_candidates, 0.0);
  t.any_child.assign(num_candidates, 0);

  for (std::size_t c = 0; c < num_candidates; ++c) {
    const Span* const* children = resolved + c * np;
    // Integer timestamps throughout -- the extracted gaps are exact.
    TimeNs stage_lb = parent.server_recv;
    TimeNs max_recv = parent.server_recv;
    std::size_t prev_stage = 0;
    bool any_child = false;
    for (std::size_t i = 0; i < np; ++i) {
      if (use_order_constraints && positions[i].stage != prev_stage) {
        stage_lb = std::max(stage_lb, max_recv);
        prev_stage = positions[i].stage;
      }
      const Span* child = children[i];
      if (child == nullptr) continue;
      const std::size_t slot = i * num_candidates + c;
      t.filled[slot] = 1;
      if (child->caller_thread == parent.handler_thread) {
        t.thread_match[slot] = 1;
      }
      const TimeNs trigger =
          use_order_constraints ? stage_lb : parent.server_recv;
      t.gaps[slot] = static_cast<double>(child->client_send - trigger);
      max_recv = std::max(max_recv, child->client_recv);
      any_child = true;
    }
    if (any_child) {
      t.any_child[c] = 1;
      t.response_gap[c] =
          static_cast<double>(parent.server_send - max_recv);
    }
  }
  return t;
}

double ScoreCandidate(const CandidateGapTable& table, std::size_t cand,
                      const ScoringContext& ctx, ScoreBreakdown* breakdown) {
  const std::size_t np = table.num_positions;
  if (breakdown != nullptr) {
    *breakdown = ScoreBreakdown{};
    breakdown->positions.resize(np);
  }
  double score = 0.0;
  for (std::size_t i = 0; i < np; ++i) {
    const ScoringContext::PositionScore& ps = (*ctx.position_scores)[i];
    const std::size_t slot = table.Slot(i, cand);
    ScoreBreakdown::Position* row =
        breakdown != nullptr ? &breakdown->positions[i] : nullptr;
    if (table.filled[slot] == 0) {
      const double skip_term = ps.skip_lp + ctx.skip_margin;
      score += skip_term;
      if (row != nullptr) row->discrete_lp = skip_term;
      continue;
    }
    score += ps.keep_lp;
    double bonus = 0.0;
    if (ctx.thread_match_bonus > 0.0 && table.thread_match[slot] != 0) {
      bonus = ctx.thread_match_bonus;
      score += bonus;
    }
    const double gap = table.gaps[slot];
    const double lp = ps.dist != nullptr ? ps.dist->LogPdf(gap)
                                         : DelayModel::FallbackLogPdf(gap);
    // Mode-normalized log-likelihood ratio: unit-free, <= 0, directly
    // comparable with the discrete skip log-probabilities above.
    const double timing = lp - ps.max_log_pdf;
    score += timing;
    if (row != nullptr) {
      row->skipped = false;
      row->gap_ns = gap;
      row->timing_lp = timing;
      row->discrete_lp = ps.keep_lp;
      row->thread_bonus = bonus;
    }
  }
  if (table.any_child[cand] != 0) {
    const double gap = table.response_gap[cand];
    const double lp = ctx.response_dist != nullptr
                          ? ctx.response_dist->LogPdf(gap)
                          : DelayModel::FallbackLogPdf(gap);
    const double response = lp - ctx.response_max_log_pdf;
    score += response;
    if (breakdown != nullptr) {
      breakdown->has_response = true;
      breakdown->response_gap_ns = gap;
      breakdown->response_lp = response;
    }
  }
  if (breakdown != nullptr) breakdown->total = score;
  return score;
}

void ScoreCandidatesBatch(const CandidateGapTable& table,
                          const ScoringContext& ctx,
                          std::span<double> scores,
                          std::span<double> scratch) {
  const std::size_t nc = table.num_candidates;
  const std::size_t np = table.num_positions;
  double* lp = scratch.data();
  for (std::size_t c = 0; c < nc; ++c) scores[c] = 0.0;

  const bool bonus_on = ctx.thread_match_bonus > 0.0;
  for (std::size_t i = 0; i < np; ++i) {
    const ScoringContext::PositionScore& ps = (*ctx.position_scores)[i];
    const double* gcol = table.gaps.data() + i * nc;
    // One batched evaluation per position column; skipped slots carry a
    // 0.0 gap whose density is computed but never accumulated.
    if (ps.dist != nullptr) {
      ps.dist->LogPdfBatch({gcol, nc}, {lp, nc});
    } else {
      DelayModel::FallbackLogPdfBatch({gcol, nc}, {lp, nc});
    }
    const std::uint8_t* fl = table.filled.data() + i * nc;
    const std::uint8_t* tm = table.thread_match.data() + i * nc;
    // Accumulation mirrors ScoreCandidate's adds term by term (skip sum,
    // keep, bonus, normalized timing), so per-candidate totals are
    // bitwise identical.
    const double skip_term = ps.skip_lp + ctx.skip_margin;
    for (std::size_t c = 0; c < nc; ++c) {
      if (fl[c] == 0) {
        scores[c] += skip_term;
        continue;
      }
      scores[c] += ps.keep_lp;
      if (bonus_on && tm[c] != 0) scores[c] += ctx.thread_match_bonus;
      scores[c] += lp[c] - ps.max_log_pdf;
    }
  }

  if (ctx.response_dist != nullptr) {
    ctx.response_dist->LogPdfBatch({table.response_gap.data(), nc},
                                   {lp, nc});
  } else {
    DelayModel::FallbackLogPdfBatch({table.response_gap.data(), nc},
                                    {lp, nc});
  }
  for (std::size_t c = 0; c < nc; ++c) {
    if (table.any_child[c] != 0) {
      scores[c] += lp[c] - ctx.response_max_log_pdf;
    }
  }
}

}  // namespace traceweaver
