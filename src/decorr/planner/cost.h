// Cost model for automatic strategy selection (Strategy::kAuto).
//
// Two layers, both derived from catalog statistics (Section 5 of the paper
// shows the NI-vs-decorrelation winner is workload-dependent — invocation
// counts and per-invocation access cost decide it):
//
//   * EstimateQueryBlocks — per-query-block cardinality, invocation-count
//     and duplicate-factor estimates over a freshly bound (pristine) graph.
//     These are the quantities tests/cost_model_test.cc holds to a q-error
//     bound against actually executed counts, so estimator regressions fail
//     loudly instead of silently flipping plan choices.
//
//   * SelectStrategy — prices every strategy: NI and NI+C on the pristine
//     graph, and each distinct rewrite once, on its own trial binding that
//     RewriteForStrategy actually rewrote (so the paper's applicability
//     limits apply themselves) and pruned (so post-prune shapes are what
//     gets priced). Mag and OptMag are one rewrite, so one magic trial is
//     priced under both. It picks the cheapest with deterministic
//     tie-breaking toward the simpler strategy and hands back the chosen
//     candidate's graph, which Database::Prepare keeps instead of rewriting
//     again. ChooseStrategy is the same selection without the graph.
#ifndef DECORR_PLANNER_COST_H_
#define DECORR_PLANNER_COST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decorr/binder/binder.h"
#include "decorr/catalog/catalog.h"
#include "decorr/common/resource.h"
#include "decorr/common/status.h"
#include "decorr/parser/ast.h"
#include "decorr/qgm/qgm.h"
#include "decorr/rewrite/strategy.h"

namespace decorr {

// Estimates for one subquery (E/A/S quantifier) or correlated-lateral block.
struct BlockEstimate {
  int box_id = -1;         // owner box of the block's quantifier
  int quantifier_id = -1;  // the subquery / lateral quantifier
  std::string alias;
  QuantifierKind kind = QuantifierKind::kScalar;
  bool correlated = false;
  // Absolute Apply invocations under nested iteration (nested blocks are
  // multiplied through their ancestors' invocation counts).
  double invocations = 1.0;
  // Estimated inner output rows per invocation.
  double rows_per_invocation = 1.0;
  // Expected distinct correlation bindings — NI+C executes the inner only
  // this many times; the rest are cache hits.
  double distinct_bindings = 1.0;
  double cache_hit_rate = 0.0;  // 1 - distinct_bindings / invocations
  // Estimated work of one inner execution, index-aware: an equality-covered
  // index turns a scan into rows/ndv lookups (the fig5-vs-fig7 divide).
  double invocation_cost = 1.0;
};

struct QueryEstimate {
  double root_rows = 1.0;
  std::vector<BlockEstimate> blocks;
};

// Block-level estimates for a bound, un-rewritten graph.
Result<QueryEstimate> EstimateQueryBlocks(QueryGraph* graph,
                                          const Catalog& catalog);

// Total estimated execution cost of `graph` when run under `strategy`
// (the strategy decides whether remaining correlated subqueries are priced
// as cached and whether common subexpressions are materialized once).
Result<double> EstimateGraphCost(QueryGraph* graph, const Catalog& catalog,
                                 Strategy strategy,
                                 int64_t subquery_cache_bytes);

// One priced candidate of the auto selector.
struct CandidateCost {
  Strategy strategy = Strategy::kNestedIteration;
  bool applicable = false;
  double cost = 0.0;
  std::string reason;  // why inapplicable; empty when applicable
};

struct AutoChoice {
  Strategy chosen = Strategy::kNestedIteration;
  double chosen_cost = 0.0;
  std::vector<CandidateCost> candidates;  // in Strategy enum order
  // EXPLAIN annotation lines: chosen strategy + per-candidate costs +
  // per-block "strategy: X (est cost Y)" estimates.
  std::vector<std::string> notes;
};

// How a bound graph is rewritten for a strategy.
struct RewriteSettings {
  DecorrelationOptions decorr;
  bool prune_dedup = true;  // run PruneRedundantDedup after the rewrite
  bool verify = false;      // re-check invariants with a RewriteVerifier
  ResourceGuard* guard = nullptr;  // polled between rule applications
};

// The one rewrite routine behind every prepared query and every kAuto trial:
// ApplyStrategy, then dedup pruning (skipped under plain NI, the
// paper-faithful baseline), then Validate. Between rule applications the
// step hook polls `settings.guard` (when set) and, when `settings.verify`
// is on, runs one RewriteVerifier over `graph` from Begin to Finish.
Status RewriteForStrategy(QueryGraph* graph, Strategy strategy,
                          const Catalog& catalog,
                          const RewriteSettings& settings);

// kAuto's answer plus the graph it chose: `bound` is the chosen candidate's
// binding, rewritten by RewriteForStrategy for `choice.chosen`.
struct AutoSelection {
  AutoChoice choice;
  std::unique_ptr<BoundQuery> bound;
};

// Resolves Strategy::kAuto for the query `ast`. `pristine` is a fresh
// binding of `ast`; NI and NI+C are priced on it, and it becomes the kept
// graph when one of them wins. Every other strategy is priced on a trial
// binding of its own, rewritten once under `settings`. Trial rewrites that
// decline with NotImplemented mark the candidate inapplicable; any other
// failure (including injected faults, guard trips and verifier findings)
// propagates verbatim so chaos tests observe it. `subquery_cache_bytes == 0`
// disqualifies NI+C (caching is off).
Result<AutoSelection> SelectStrategy(const AstQuery& ast,
                                     std::unique_ptr<BoundQuery> pristine,
                                     const Catalog& catalog,
                                     const RewriteSettings& settings,
                                     int64_t subquery_cache_bytes);

// SelectStrategy on a fresh binding of `ast`, with no guard and no
// verifier, keeping only the answer.
Result<AutoChoice> ChooseStrategy(const AstQuery& ast, const Catalog& catalog,
                                  const DecorrelationOptions& decorr,
                                  bool prune_dedup,
                                  int64_t subquery_cache_bytes);

}  // namespace decorr

#endif  // DECORR_PLANNER_COST_H_
