#include "decorr/planner/cost.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>
#include <utility>

#include "decorr/analysis/rewrite_verify.h"
#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"
#include "decorr/planner/estimate.h"
#include "decorr/qgm/analysis.h"
#include "decorr/qgm/validate.h"
#include "decorr/rewrite/prune.h"

namespace decorr {

namespace {

// A cache/hash probe relative to producing one row (= 1.0).
constexpr double kProbeCost = 0.5;
// Fixed overhead of re-entering a subplan for one invocation: parameter
// binding, operator reset/open, aggregate finalization. Worth tens of
// streamed rows — an Apply invocation costs microseconds where a hash join
// streams a row in tens of nanoseconds — so nested iteration over many
// bindings carries real cost even when each lookup is index-served
// (Figure 6's 10k-invocation plan loses to the batched rewrites despite
// per-invocation index access; without this term the model cannot see why).
constexpr double kInvocationOverhead = 20.0;
// Noise band around the minimum candidate cost. The estimator is held to a
// per-block q-error of 4 (see tests/cost_model_test.cc), so cost separations
// this small carry no signal; every candidate within the band of the MINIMUM
// is a co-winner and the most robust one takes it (see StrategyPreference).
// The band is anchored at the minimum — not compared pairwise — so ties
// cannot chain A~B~C into picking a C that is far from A.
constexpr double kCostNoiseBand = 0.15;

// Preference rank for tie-breaking: simpler / more robust first. NI needs no
// rewrite at all; NI+C only executor support; the magic family is the
// paper's general method; Ganski/Dayal/Kim are narrower special cases.
int StrategyPreference(Strategy s) {
  switch (s) {
    case Strategy::kNestedIteration: return 0;
    case Strategy::kNestedIterationCached: return 1;
    case Strategy::kMagic: return 2;
    case Strategy::kOptMagic: return 3;
    case Strategy::kGanskiWong: return 4;
    case Strategy::kDayal: return 5;
    case Strategy::kKim: return 6;
    case Strategy::kAuto: return 99;
  }
  return 99;
}

// Kim's method evaluates correlated aggregates by outer-joining a grouped
// inner — faithful to [Kim82], COUNT bug included: a COUNT over an empty
// correlation group yields no row instead of 0. The selector must never
// auto-pick a strategy that can return wrong rows, so any COUNT aggregate
// in the query disqualifies Kim (conservative: outer-block COUNTs disqualify
// too, which only costs us a candidate).
bool HasCountAggregate(QueryGraph* graph) {
  for (Box* box : SubtreeBoxes(graph->root())) {
    for (const Expr* expr : box->AllExprs()) {
      if (AnyNode(*expr, [](const Expr& node) {
            return node.kind == ExprKind::kAggregate &&
                   (node.agg == AggKind::kCountStar ||
                    node.agg == AggKind::kCount);
          })) {
        return true;
      }
    }
  }
  return false;
}

// Shared estimator machinery for block estimates and whole-graph costing.
class CostModel {
 public:
  CostModel(QueryGraph* graph, const Catalog& catalog, bool cache_enabled,
            bool materialize_common)
      : graph_(graph),
        catalog_(catalog),
        cache_enabled_(cache_enabled),
        materialize_common_(materialize_common),
        est_(catalog) {}

  CardEstimator& est() { return est_; }

  double GraphCost() { return BoxCost(graph_->root()); }

  void CollectBlocks(Box* box, double multiplier,
                     std::vector<BlockEstimate>* out) {
    if (!visited_.insert(box->id()).second) return;
    for (Quantifier* q : box->quantifiers()) {
      Box* child = q->child;
      const bool subquery = q->kind != QuantifierKind::kForeach;
      const bool lateral = !subquery && box->IsSpj() && HasCorrelation(child);
      if (box->IsSpj() && (subquery || lateral)) {
        BlockEstimate b;
        b.box_id = box->id();
        b.quantifier_id = q->id;
        b.alias = q->alias;
        b.kind = q->kind;
        b.correlated = HasCorrelation(child);
        b.invocations = std::max(1.0, multiplier * Invocations(box, q));
        b.rows_per_invocation = est_.EstimateBoxRows(child);
        b.distinct_bindings = DistinctBindings(box, q, b.invocations);
        b.cache_hit_rate =
            std::max(0.0, 1.0 - b.distinct_bindings / b.invocations);
        b.invocation_cost = OneShotCost(child);
        out->push_back(b);
        CollectBlocks(child, b.invocations, out);
      } else {
        CollectBlocks(child, multiplier, out);
      }
    }
  }

  // Apply invocations of subquery/lateral quantifier `q` per one execution
  // of its owner box. Mirrors the planner's placement rule exactly: the
  // planner joins the foreach quantifiers in greedy smallest-result order
  // and attaches the apply at the smallest intermediate result that has
  // every correlation source bound (planner.cc choose_position). When the
  // greedy order binds the source last — Figure 6's filtered `parts` joins
  // after `suppliers x partsupp` — the apply runs over the full join, not
  // the source alone, and pricing it at the source's cardinality makes
  // nested iteration look several times cheaper than it runs.
  double Invocations(Box* box, Quantifier* q) {
    std::vector<int> remaining;
    for (const Quantifier* fq : box->quantifiers()) {
      if (fq->kind == QuantifierKind::kForeach && fq != q) {
        remaining.push_back(fq->id);
      }
    }
    if (remaining.empty()) return 1.0;
    // Only correlation bindings force re-invocation; the outer columns of
    // the marker predicate itself (`d.num_emps > (SELECT ...)`) gate rows
    // after the apply but do not re-execute an invariant subplan.
    std::set<int> sources;
    for (const auto& [qid, col] : CorrelationColumnsFrom(q->child, box)) {
      (void)col;
      if (std::find(remaining.begin(), remaining.end(), qid) !=
          remaining.end()) {
        sources.insert(qid);
      }
    }
    if (sources.empty()) {
      // No correlation bindings: the subplan is invariant and the executor
      // evaluates it once regardless of outer cardinality.
      return 1.0;
    }
    std::set<int> bound;
    double best = -1.0;
    bool legal = false;
    while (!remaining.empty()) {
      size_t pick = 0;
      double pick_rows = -1.0;
      for (size_t i = 0; i < remaining.size(); ++i) {
        std::set<int> trial = bound;
        trial.insert(remaining[i]);
        const double rows = JoinSubsetRows(box, trial);
        if (pick_rows < 0 || rows < pick_rows) {
          pick_rows = rows;
          pick = i;
        }
      }
      bound.insert(remaining[pick]);
      remaining.erase(remaining.begin() + pick);
      if (!legal) {
        legal = std::includes(bound.begin(), bound.end(), sources.begin(),
                              sources.end());
      }
      if (legal && (best < 0 || pick_rows < best)) best = pick_rows;
    }
    return std::max(1.0, best);
  }

  // Expected distinct correlation bindings (the NI+C cache key space).
  double DistinctBindings(Box* box, Quantifier* q, double invocations) {
    std::set<std::pair<int, int>> cols;
    for (const ExternalRef& ref : CollectExternalRefs(q->child)) {
      cols.insert({ref.ref->qid, ref.ref->col});
    }
    if (cols.empty()) return 1.0;
    double d = 1.0;
    for (const auto& [qid, col] : cols) {
      Quantifier* src = graph_->FindQuantifier(qid);
      if (src == nullptr) continue;
      double d_src = std::max(1.0, est_.EstimateDistinct(src->child, col));
      // Binding values come from the box's *filtered* rows of the source,
      // not the whole base table: LIKE-filtered parts contribute at most
      // that many distinct part keys. This gap is what makes the NI+C
      // cache pay off when the apply runs over a wider join (hit rate
      // 1 - distinct/invocations).
      if (box != nullptr && box->OwnsQuantifier(qid)) {
        d_src = std::min(d_src, JoinSubsetRows(box, {qid}));
      }
      d *= d_src;
    }
    return std::min(d, std::max(invocations, 1.0));
  }

  // Work of executing the subtree under `box` once, index-aware.
  double OneShotCost(Box* box) {
    switch (box->kind()) {
      case BoxKind::kBaseTable:
        return std::max(TableRows(box), 1.0);
      case BoxKind::kGroupBy: {
        Box* input = box->quantifiers()[0]->child;
        return OneShotCost(input) + est_.EstimateBoxRows(input);
      }
      case BoxKind::kUnion: {
        double cost = est_.EstimateBoxRows(box);
        for (const Quantifier* q : box->quantifiers()) {
          cost += OneShotCost(q->child);
        }
        return cost;
      }
      case BoxKind::kSelect: {
        double cost = est_.EstimateBoxRows(box);
        for (Quantifier* q : box->quantifiers()) {
          if (q->kind == QuantifierKind::kForeach) {
            cost += q->child->kind() == BoxKind::kBaseTable
                        ? AccessCost(box, q)
                        : OneShotCost(q->child);
          } else {
            cost += Invocations(box, q) *
                    (OneShotCost(q->child) + kInvocationOverhead);
          }
        }
        return cost;
      }
    }
    return 1.0;
  }

 private:
  double TableRows(Box* box) {
    const CatalogEntry* entry = catalog_.FindEntry(box->table->schema().name());
    return entry ? static_cast<double>(entry->stats.row_count)
                 : static_cast<double>(box->table->num_rows());
  }

  // Per-invocation cost of reading base table `q->child` from inside `box`:
  // an index covered by the equality-bound columns serves rows/ndv matches;
  // otherwise every invocation pays a full scan — exactly the condition
  // Figure 7 flips by dropping the partsupp indexes.
  double AccessCost(Box* box, Quantifier* q) {
    Box* t = q->child;
    const double rows = std::max(TableRows(t), 1.0);
    std::vector<int> eq_cols;
    auto is_q_ref = [q](const Expr* e) {
      return e->kind == ExprKind::kColumnRef && e->qid == q->id;
    };
    auto free_of_q = [q](const Expr& e) {
      return !AnyNode(e, [q](const Expr& node) {
        return node.kind == ExprKind::kColumnRef && node.qid == q->id;
      });
    };
    for (const ExprPtr& pred : box->predicates) {
      if (pred->kind != ExprKind::kComparison ||
          (pred->op != BinaryOp::kEq && pred->op != BinaryOp::kNullEq)) {
        continue;
      }
      const Expr* lhs = pred->children[0].get();
      const Expr* rhs = pred->children[1].get();
      if (is_q_ref(lhs) && free_of_q(*rhs)) eq_cols.push_back(lhs->col);
      if (is_q_ref(rhs) && free_of_q(*lhs)) eq_cols.push_back(rhs->col);
    }
    if (!eq_cols.empty()) {
      auto index =
          catalog_.FindIndexCoveredBy(t->table->schema().name(), eq_cols);
      if (index) {
        const CatalogEntry* entry =
            catalog_.FindEntry(t->table->schema().name());
        double ndv = 1.0;
        for (int kc : index->key_columns()) {
          if (entry && kc < static_cast<int>(entry->stats.columns.size()) &&
              entry->stats.columns[kc].distinct_count > 0) {
            ndv *= static_cast<double>(entry->stats.columns[kc].distinct_count);
          }
        }
        return std::max(1.0, rows / std::max(ndv, 1.0));
      }
    }
    return rows;
  }

  // Estimated rows of joining only `subset` of `box`'s F quantifiers, with
  // every predicate fully contained in the subset applied (subquery-marker
  // predicates excluded — they gate rows only after the apply runs).
  double JoinSubsetRows(Box* box, const std::set<int>& subset) {
    double rows = 1.0;
    for (int qid : subset) {
      Quantifier* q = box->FindQuantifier(qid);
      if (q == nullptr) continue;
      rows *= std::max(est_.EstimateBoxRows(q->child), 1.0);
    }
    double selectivity = 1.0;
    for (const ExprPtr& pred : box->predicates) {
      if (!ReferencedSubqueryQuantifiers(*pred).empty()) continue;
      std::vector<int> local;
      for (int r : ReferencedQuantifiers(*pred)) {
        if (box->OwnsQuantifier(r)) local.push_back(r);
      }
      if (local.empty()) continue;
      bool contained = true;
      for (int r : local) {
        if (!subset.count(r)) { contained = false; break; }
      }
      if (!contained) continue;
      const Expr* lhs =
          pred->children.empty() ? nullptr : pred->children[0].get();
      const Expr* rhs =
          pred->children.size() > 1 ? pred->children[1].get() : nullptr;
      const bool equi_join =
          pred->kind == ExprKind::kComparison &&
          (pred->op == BinaryOp::kEq || pred->op == BinaryOp::kNullEq) &&
          lhs && rhs && lhs->kind == ExprKind::kColumnRef &&
          rhs->kind == ExprKind::kColumnRef && box->OwnsQuantifier(lhs->qid) &&
          box->OwnsQuantifier(rhs->qid) && lhs->qid != rhs->qid;
      if (equi_join) {
        Quantifier* lq = box->FindQuantifier(lhs->qid);
        Quantifier* rq = box->FindQuantifier(rhs->qid);
        const double ndv =
            std::max(est_.EstimateDistinct(lq->child, lhs->col),
                     est_.EstimateDistinct(rq->child, rhs->col));
        selectivity /= std::max(ndv, 1.0);
      } else {
        selectivity *= est_.PredicateSelectivity(box, *pred);
      }
    }
    return std::max(rows * selectivity, 1.0);
  }

  // Total work to produce `box`'s output once, strategy-aware.
  double BoxCost(Box* box) {
    switch (box->kind()) {
      case BoxKind::kBaseTable:
        return std::max(TableRows(box), 1.0);
      case BoxKind::kGroupBy: {
        Box* input = box->quantifiers()[0]->child;
        return UseCost(input) + est_.EstimateBoxRows(input);
      }
      case BoxKind::kUnion: {
        double cost = est_.EstimateBoxRows(box);
        for (const Quantifier* q : box->quantifiers()) {
          cost += UseCost(q->child);
        }
        return cost;
      }
      case BoxKind::kSelect: {
        double cost = est_.EstimateBoxRows(box);
        if (box->distinct) cost += est_.EstimateBoxRows(box);
        for (Quantifier* q : box->quantifiers()) {
          Box* child = q->child;
          const bool correlated = HasCorrelation(child);
          if (q->kind == QuantifierKind::kForeach && !correlated) {
            cost += UseCost(child);
            continue;
          }
          const double n = Invocations(box, q);
          if (child->role == BoxRole::kCi) {
            // Repeated correlated selection left by magic with existential
            // decorrelation: the executor builds a hashed temporary once
            // and probes it per row.
            cost += BatchBuildCost(child) + n * kProbeCost;
            continue;
          }
          const double per = OneShotCost(child) + kInvocationOverhead;
          if (cache_enabled_) {
            cost += DistinctBindings(box, q, n) * per + n * kProbeCost;
          } else {
            cost += n * per;
          }
        }
        return cost;
      }
    }
    return 1.0;
  }

  // Common-subexpression pricing: under OptMag a multiply-used box is
  // computed once and re-scanned per further use; otherwise it is recomputed
  // for every use (the Mag-vs-OptMag difference of Section 5.4).
  double UseCost(Box* child) {
    if (graph_->UsesOf(child).size() <= 1) return BoxCost(child);
    if (materialize_common_) {
      const double rows = est_.EstimateBoxRows(child);
      if (!materialized_.insert(child->id()).second) return rows;
      return BoxCost(child) + rows;
    }
    return BoxCost(child);
  }

  // Building the hashed temporary for a CI box: scan its base inputs once.
  double BatchBuildCost(Box* box) {
    double total = 0.0;
    for (Box* b : SubtreeBoxes(box)) {
      if (b->kind() == BoxKind::kBaseTable) total += TableRows(b);
    }
    return std::max(total, 1.0);
  }

  QueryGraph* graph_;
  const Catalog& catalog_;
  const bool cache_enabled_;
  const bool materialize_common_;
  CardEstimator est_;
  std::set<int> visited_;
  std::set<int> materialized_;
};

// Per-block cost under the chosen strategy, for the EXPLAIN annotation.
double BlockCostUnder(const BlockEstimate& b, Strategy s) {
  switch (s) {
    case Strategy::kNestedIteration:
      return b.invocations * (b.invocation_cost + kInvocationOverhead);
    case Strategy::kNestedIterationCached:
      return b.distinct_bindings * (b.invocation_cost + kInvocationOverhead) +
             b.invocations * kProbeCost;
    default:
      // Decorrelated: one batched inner pass over the distinct bindings
      // plus the binding back-join probes.
      return b.invocation_cost +
             b.distinct_bindings * b.rows_per_invocation +
             b.invocations * kProbeCost;
  }
}

}  // namespace

Result<QueryEstimate> EstimateQueryBlocks(QueryGraph* graph,
                                          const Catalog& catalog) {
  DECORR_FAULT_POINT("planner.cost.estimate");
  CostModel model(graph, catalog, /*cache_enabled=*/false,
                  /*materialize_common=*/false);
  QueryEstimate out;
  out.root_rows = model.est().EstimateBoxRows(graph->root());
  model.CollectBlocks(graph->root(), 1.0, &out.blocks);
  return out;
}

Result<double> EstimateGraphCost(QueryGraph* graph, const Catalog& catalog,
                                 Strategy strategy,
                                 int64_t subquery_cache_bytes) {
  const bool cached =
      strategy != Strategy::kNestedIteration && subquery_cache_bytes > 0;
  CostModel model(graph, catalog, cached,
                  strategy == Strategy::kOptMagic);
  return model.GraphCost();
}

Status RewriteForStrategy(QueryGraph* graph, Strategy strategy,
                          const Catalog& catalog,
                          const RewriteSettings& settings) {
  std::optional<RewriteVerifier> verifier;
  RewriteStepFn on_step;
  if (settings.verify) {
    verifier.emplace(graph, strategy);
    DECORR_RETURN_IF_ERROR(verifier->Begin());
    on_step = verifier->AsCallback();
  }
  // Long rewrites honor cancellation and the deadline between rule
  // applications.
  if (settings.guard != nullptr) {
    on_step = [guard = settings.guard, inner = std::move(on_step)](
                  const std::string& rule) -> Status {
      DECORR_RETURN_IF_ERROR(guard->Check());
      return inner ? inner(rule) : Status::OK();
    };
  }
  DECORR_RETURN_IF_ERROR(
      ApplyStrategy(graph, strategy, catalog, settings.decorr, on_step));
  // Dedup pruning runs after decorrelation, over the final graph. Plain NI
  // stays untouched for the same reason it never caches: it is the
  // paper-faithful baseline every other strategy is measured against.
  if (settings.prune_dedup && strategy != Strategy::kNestedIteration) {
    DECORR_RETURN_IF_ERROR(PruneRedundantDedup(graph, on_step));
  }
  DECORR_RETURN_IF_ERROR(Validate(graph));
  if (verifier) DECORR_RETURN_IF_ERROR(verifier->Finish());
  return Status::OK();
}

Result<AutoSelection> SelectStrategy(const AstQuery& ast,
                                     std::unique_ptr<BoundQuery> pristine,
                                     const Catalog& catalog,
                                     const RewriteSettings& settings,
                                     int64_t subquery_cache_bytes) {
  DECORR_FAULT_POINT("rewrite.auto.select");
  DECORR_ASSIGN_OR_RETURN(QueryEstimate est,
                          EstimateQueryBlocks(pristine->graph.get(), catalog));
  const bool count_agg = HasCountAggregate(pristine->graph.get());

  AutoSelection selection;
  AutoChoice& choice = selection.choice;
  const Strategy order[] = {
      Strategy::kNestedIteration, Strategy::kNestedIterationCached,
      Strategy::kKim,             Strategy::kDayal,
      Strategy::kGanskiWong,      Strategy::kMagic,
      Strategy::kOptMagic,
  };
  // Each applicable rewrite's trial graph, indexed like `order`.
  std::unique_ptr<BoundQuery> trials[std::size(order)];
  for (size_t i = 0; i < std::size(order); ++i) {
    const Strategy s = order[i];
    CandidateCost cand;
    cand.strategy = s;
    if (s == Strategy::kNestedIterationCached && subquery_cache_bytes <= 0) {
      cand.reason = "subquery cache disabled";
      choice.candidates.push_back(std::move(cand));
      continue;
    }
    if (s == Strategy::kKim && count_agg) {
      cand.reason = "COUNT aggregate present (Kim's COUNT bug)";
      choice.candidates.push_back(std::move(cand));
      continue;
    }
    if (s == Strategy::kNestedIteration ||
        s == Strategy::kNestedIterationCached) {
      DECORR_ASSIGN_OR_RETURN(
          cand.cost, EstimateGraphCost(pristine->graph.get(), catalog, s,
                                       subquery_cache_bytes));
      cand.applicable = true;
      choice.candidates.push_back(std::move(cand));
      continue;
    }
    if (est.blocks.empty()) {
      cand.reason = "no subquery blocks to decorrelate";
      choice.candidates.push_back(std::move(cand));
      continue;
    }
    if (s == Strategy::kOptMagic) {
      // Mag and OptMag are one rewrite (MagicDecorrelate); OptMag differs
      // only in the planner materializing the supplementary table once, so
      // it prices Mag's trial graph under its own cost rule.
      const CandidateCost& mag = choice.candidates[i - 1];
      cand.reason = mag.reason;
      if (mag.applicable) {
        DECORR_ASSIGN_OR_RETURN(
            cand.cost, EstimateGraphCost(trials[i - 1]->graph.get(), catalog,
                                         s, subquery_cache_bytes));
        cand.applicable = true;
      }
      choice.candidates.push_back(std::move(cand));
      continue;
    }
    // Trial-rewrite a fresh binding so the method's own applicability check
    // runs, and price the post-rewrite (post-prune) shape.
    DECORR_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> trial,
                            Bind(ast, catalog));
    Status st = RewriteForStrategy(trial->graph.get(), s, catalog, settings);
    if (!st.ok()) {
      if (st.code() == StatusCode::kNotImplemented) {
        cand.reason = st.message();
        choice.candidates.push_back(std::move(cand));
        continue;
      }
      return st;  // injected faults and real failures surface verbatim
    }
    DECORR_ASSIGN_OR_RETURN(
        cand.cost, EstimateGraphCost(trial->graph.get(), catalog, s,
                                     subquery_cache_bytes));
    cand.applicable = true;
    choice.candidates.push_back(std::move(cand));
    trials[i] = std::move(trial);
  }

  // Two-pass selection: find the cheapest estimate, then let the most
  // robust strategy inside the noise band of that minimum take the pick.
  const CandidateCost* cheapest = nullptr;
  for (const CandidateCost& cand : choice.candidates) {
    if (!cand.applicable) continue;
    if (cheapest == nullptr || cand.cost < cheapest->cost) cheapest = &cand;
  }
  if (cheapest == nullptr) {
    return Status::Internal("auto selector found no applicable strategy");
  }
  const double band = cheapest->cost * (1.0 + kCostNoiseBand);
  const CandidateCost* best = cheapest;
  for (const CandidateCost& cand : choice.candidates) {
    if (!cand.applicable || cand.cost > band) continue;
    if (StrategyPreference(cand.strategy) < StrategyPreference(best->strategy)) {
      best = &cand;
    }
  }
  choice.chosen = best->strategy;
  choice.chosen_cost = best->cost;
  if (choice.chosen == Strategy::kNestedIteration ||
      choice.chosen == Strategy::kNestedIterationCached) {
    DECORR_RETURN_IF_ERROR(RewriteForStrategy(
        pristine->graph.get(), choice.chosen, catalog, settings));
    selection.bound = std::move(pristine);
  } else {
    size_t at = static_cast<size_t>(best - choice.candidates.data());
    if (choice.chosen == Strategy::kOptMagic) --at;  // Mag's trial graph
    selection.bound = std::move(trials[at]);
  }

  choice.notes.push_back(StrFormat("auto strategy: %s (est cost %.4g)",
                                   StrategyName(choice.chosen),
                                   choice.chosen_cost));
  std::string cands = "auto candidates:";
  for (const CandidateCost& cand : choice.candidates) {
    if (cand.applicable) {
      cands += StrFormat(" %s=%.4g", StrategyName(cand.strategy), cand.cost);
    } else {
      cands += StrFormat(" %s=n/a", StrategyName(cand.strategy));
    }
  }
  choice.notes.push_back(std::move(cands));
  for (const BlockEstimate& b : est.blocks) {
    choice.notes.push_back(StrFormat(
        "auto block b%d.q%d (%s, %s): strategy: %s (est cost %.4g); "
        "invocations=%.4g rows/inv=%.4g distinct=%.4g hit-rate=%.2f",
        b.box_id, b.quantifier_id,
        b.alias.empty() ? "subquery" : b.alias.c_str(),
        QuantifierKindName(b.kind), StrategyName(choice.chosen),
        BlockCostUnder(b, choice.chosen), b.invocations,
        b.rows_per_invocation, b.distinct_bindings, b.cache_hit_rate));
  }
  return selection;
}

Result<AutoChoice> ChooseStrategy(const AstQuery& ast, const Catalog& catalog,
                                  const DecorrelationOptions& decorr,
                                  bool prune_dedup,
                                  int64_t subquery_cache_bytes) {
  DECORR_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> pristine,
                          Bind(ast, catalog));
  RewriteSettings settings;
  settings.decorr = decorr;
  settings.prune_dedup = prune_dedup;
  DECORR_ASSIGN_OR_RETURN(
      AutoSelection selection,
      SelectStrategy(ast, std::move(pristine), catalog, settings,
                     subquery_cache_bytes));
  return std::move(selection.choice);
}

}  // namespace decorr
