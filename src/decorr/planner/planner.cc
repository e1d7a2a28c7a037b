#include "decorr/planner/planner.h"

#include <algorithm>
#include <map>
#include <set>

#include "decorr/common/fault.h"
#include "decorr/common/logging.h"
#include "decorr/common/string_util.h"
#include "decorr/exec/aggregate.h"
#include "decorr/exec/apply.h"
#include "decorr/exec/check.h"
#include "decorr/exec/filter_project.h"
#include "decorr/exec/join.h"
#include "decorr/exec/misc_ops.h"
#include "decorr/exec/scan.h"
#include "decorr/planner/estimate.h"
#include "decorr/qgm/analysis.h"

namespace decorr {

namespace {

using SlotKey = std::pair<int, int>;  // (quantifier id, output ordinal)

// Placeholder quantifier ids for subquery verdict/value columns injected
// into predicates during planning.
constexpr int kPlaceholderBase = -1000;

// Correlation-parameter environment for one correlated inner plan. Resolving
// a reference that is not locally bound walks outward: first the slots of
// the Apply's input row, then the enclosing environment (yielding chained
// ParamSources).
struct ParamEnv {
  ParamEnv* parent = nullptr;
  const std::map<SlotKey, int>* outer_slots = nullptr;  // Apply input row
  std::vector<ParamSource> sources;
  std::map<SlotKey, int> param_map;

  Result<int> RequireParam(const SlotKey& key) {
    auto it = param_map.find(key);
    if (it != param_map.end()) return it->second;
    ParamSource src;
    if (outer_slots != nullptr) {
      auto slot_it = outer_slots->find(key);
      if (slot_it != outer_slots->end()) {
        src.from_outer = false;
        src.index = slot_it->second;
        sources.push_back(src);
        const int idx = static_cast<int>(sources.size()) - 1;
        param_map[key] = idx;
        return idx;
      }
    }
    if (parent != nullptr) {
      DECORR_ASSIGN_OR_RETURN(int outer_idx, parent->RequireParam(key));
      src.from_outer = true;
      src.index = outer_idx;
      sources.push_back(src);
      const int idx = static_cast<int>(sources.size()) - 1;
      param_map[key] = idx;
      return idx;
    }
    return Status::Internal(
        StrFormat("unresolvable column reference Q%d.%d during planning",
                  key.first, key.second));
  }
};

struct SlotContext {
  const std::map<SlotKey, int>* slots = nullptr;
  const std::map<int, int>* placeholder_slots = nullptr;  // qid -> slot
  ParamEnv* env = nullptr;
};

// Rewrites (a clone of) `expr`, turning column refs into slot refs or
// parameter refs.
Status SlotifyInPlace(Expr* expr, const SlotContext& sctx) {
  if (expr->kind == ExprKind::kColumnRef) {
    if (sctx.placeholder_slots != nullptr && expr->qid <= kPlaceholderBase) {
      auto it = sctx.placeholder_slots->find(expr->qid);
      if (it == sctx.placeholder_slots->end()) {
        return Status::Internal("unbound subquery placeholder in planning");
      }
      expr->slot = it->second;
      expr->qid = -1;
      return Status::OK();
    }
    if (sctx.slots != nullptr) {
      auto it = sctx.slots->find({expr->qid, expr->col});
      if (it != sctx.slots->end()) {
        expr->slot = it->second;
        expr->qid = -1;
        return Status::OK();
      }
    }
    if (sctx.env == nullptr) {
      return Status::Internal("correlated reference with no environment");
    }
    DECORR_ASSIGN_OR_RETURN(int param, sctx.env->RequireParam(
                                           {expr->qid, expr->col}));
    expr->kind = ExprKind::kParamRef;
    expr->param = param;
    return Status::OK();
  }
  for (ExprPtr& child : expr->children) {
    DECORR_RETURN_IF_ERROR(SlotifyInPlace(child.get(), sctx));
  }
  return Status::OK();
}

Result<ExprPtr> Slotify(const Expr& expr, const SlotContext& sctx) {
  ExprPtr clone = expr.Clone();
  DECORR_RETURN_IF_ERROR(SlotifyInPlace(clone.get(), sctx));
  return clone;
}

// Local quantifier ids (of `box`) referenced by the expression, plus the
// placeholder ids, written into the two out-sets.
void CollectRequirements(const Expr& expr, const Box* box,
                         std::set<int>* qids, std::set<int>* placeholders) {
  VisitExpr(expr, [&](const Expr& node) {
    if (node.kind != ExprKind::kColumnRef) return;
    if (node.qid <= kPlaceholderBase) {
      placeholders->insert(node.qid);
    } else if (box->OwnsQuantifier(node.qid)) {
      qids->insert(node.qid);
    }
  });
}

// A subquery unit extracted from predicates / outputs.
struct SubUnit {
  int placeholder_qid = 0;
  Quantifier* quantifier = nullptr;
  SubqueryMode mode = SubqueryMode::kScalar;
  ExprPtr lhs;  // unslotted (over box quantifiers); may be null
  BinaryOp op = BinaryOp::kEq;
  bool negated = false;
  std::set<int> required_qids;  // correlation sources + lhs references
};

// The verdict a subquery unit's Apply appends, its lhs over the Apply's
// input row.
Result<SubquerySemantics> Semantics(const SubUnit& unit,
                                    const SlotContext& sctx) {
  SubquerySemantics semantics;
  semantics.mode = unit.mode;
  semantics.op = unit.op;
  semantics.negated = unit.negated;
  if (unit.lhs) {
    DECORR_ASSIGN_OR_RETURN(semantics.lhs, Slotify(*unit.lhs, sctx));
  }
  return semantics;
}

// Replaces subquery marker nodes in `expr` with placeholder column refs,
// appending the extracted units.
void ExtractSubqueryMarkers(Expr* expr, Box* box,
                            std::vector<SubUnit>* units) {
  const bool is_marker = expr->kind == ExprKind::kScalarSubquery ||
                         expr->kind == ExprKind::kExists ||
                         expr->kind == ExprKind::kInSubquery ||
                         expr->kind == ExprKind::kQuantifiedComparison;
  if (is_marker) {
    SubUnit unit;
    unit.quantifier = box->graph()->FindQuantifier(expr->sub_qid);
    DECORR_CHECK(unit.quantifier != nullptr);
    switch (expr->kind) {
      case ExprKind::kScalarSubquery:
        unit.mode = SubqueryMode::kScalar;
        break;
      case ExprKind::kExists:
        unit.mode = SubqueryMode::kExists;
        unit.negated = expr->negated;
        break;
      case ExprKind::kInSubquery:
        unit.mode = SubqueryMode::kIn;
        unit.negated = expr->negated;
        unit.lhs = std::move(expr->children[0]);
        break;
      case ExprKind::kQuantifiedComparison:
        unit.mode = expr->quant == Quantification::kAny ? SubqueryMode::kAny
                                                        : SubqueryMode::kAll;
        unit.op = expr->op;
        unit.lhs = std::move(expr->children[0]);
        break;
      default:
        break;
    }
    // Correlation sources of the subquery within this box.
    for (const auto& [qid, col] :
         CorrelationColumnsFrom(unit.quantifier->child, box)) {
      (void)col;
      unit.required_qids.insert(qid);
    }
    if (unit.lhs) {
      std::set<int> ph;
      CollectRequirements(*unit.lhs, box, &unit.required_qids, &ph);
    }
    unit.placeholder_qid =
        kPlaceholderBase - static_cast<int>(units->size());
    // Mutate the marker node into a placeholder reference.
    const TypeId type = expr->type;
    const int placeholder = unit.placeholder_qid;
    expr->children.clear();
    expr->kind = ExprKind::kColumnRef;
    expr->qid = placeholder;
    expr->col = 0;
    expr->type = type;
    expr->name = "subq";
    units->push_back(std::move(unit));
    return;
  }
  for (ExprPtr& child : expr->children) {
    ExtractSubqueryMarkers(child.get(), box, units);
  }
}

}  // namespace

// ----------------------------------------------------------------------------

class Planner::Impl {
 public:
  Impl(const Catalog& catalog, const PlannerOptions& options,
       bool hoist_invariant_subplans)
      : catalog_(catalog),
        options_(options),
        hoist_invariant_subplans_(hoist_invariant_subplans),
        estimator_(catalog) {}

  Result<PhysicalPlan> PlanRoot(QueryGraph* graph) {
    graph_ = graph;
    CollectAccessColumns(*graph);
    ParamEnv root_env;
    DECORR_ASSIGN_OR_RETURN(OperatorPtr op, PlanBox(graph->root(), &root_env));
    if (!root_env.sources.empty()) {
      return Status::Internal("root plan has unresolved correlations");
    }
    PhysicalPlan plan;
    plan.root = std::move(op);
    for (int i = 0; i < graph->root()->num_outputs(); ++i) {
      plan.column_names.push_back(graph->root()->OutputName(i));
    }
    for (const std::unique_ptr<Box>& box : graph->boxes()) {
      if (box->dedup_pruned.empty()) continue;
      std::string where = StrFormat("box %d", box->id());
      if (!box->label.empty()) where += " (" + box->label + ")";
      plan.notes.push_back(
          StrFormat("dedup pruned: %s: %s", where.c_str(),
                    box->dedup_pruned.c_str()));
    }
    return plan;
  }

 private:
  // ---- column pruning ----

  // True when `pred`, a predicate of `box`, is evaluated by the access path
  // of FROM quantifier `qid` over that quantifier's own row: it references
  // `qid` and no other quantifier of the box, holds no subquery (nor the
  // placeholder standing for an extracted one), and `qid` is not the
  // null-padded side of an outer join, whose predicates form the join
  // condition over the combined row. Correlated references to enclosing
  // boxes reach the access path as parameters. Column pruning
  // (CollectAccessColumns) and planning (LocalPredicates) both follow this
  // one rule, so a column left out of the layout is never read above it.
  static bool IsAccessLocal(const Box& box, const Expr& pred, int qid) {
    if (qid == box.null_padded_qid) return false;
    bool reads_qid = false;
    const bool foreign = AnyNode(pred, [&](const Expr& node) {
      switch (node.kind) {
        case ExprKind::kScalarSubquery:
        case ExprKind::kExists:
        case ExprKind::kInSubquery:
        case ExprKind::kQuantifiedComparison:
          return true;
        case ExprKind::kColumnRef:
          if (node.qid == qid) {
            reads_qid = true;
            return false;
          }
          return node.qid <= kPlaceholderBase || box.OwnsQuantifier(node.qid);
        default:
          return false;
      }
    });
    return reads_qid && !foreign;
  }

  // Counts, for every base-table FROM quantifier of a Select box, the
  // references to each table column from expressions of the graph outside
  // the quantifier's own access path. The columns counted are all its
  // access path projects and all RegisterSlots lays out, so rows carry no
  // column that nothing above the scan reads.
  void CollectAccessColumns(const QueryGraph& graph) {
    std::map<int, std::map<int, int>>& used = access_refs_;
    used.clear();
    for (const std::unique_ptr<Box>& box : graph.boxes()) {
      if (box->kind() != BoxKind::kSelect) continue;
      for (const Quantifier* q : box->quantifiers()) {
        if (q->kind == QuantifierKind::kForeach &&
            q->child->kind() == BoxKind::kBaseTable) {
          used[q->id];
        }
      }
    }
    auto note = [&used](const Expr& expr, int skip_qid) {
      VisitExpr(expr, [&](const Expr& node) {
        if (node.kind != ExprKind::kColumnRef || node.qid == skip_qid) return;
        auto it = used.find(node.qid);
        if (it != used.end()) ++it->second[node.col];
      });
    };
    for (const std::unique_ptr<Box>& box : graph.boxes()) {
      for (const OutputColumn& out : box->outputs) {
        if (out.expr) note(*out.expr, -1);
      }
      for (const ExprPtr& key : box->group_by) note(*key, -1);
      for (const ExprPtr& pred : box->predicates) {
        int consumer = -1;
        for (const Quantifier* q : box->quantifiers()) {
          if (used.count(q->id) && IsAccessLocal(*box, *pred, q->id)) {
            consumer = q->id;
            break;
          }
        }
        note(*pred, consumer);
      }
    }
  }

  // The table columns q's access path projects, in table order: those read
  // outside it, less any read only by the key pairs an index probe consumes
  // (`probed`: table column -> number of such pairs).
  std::vector<int> AccessColumns(const Quantifier* q,
                                 const std::map<int, int>& probed = {}) const {
    std::vector<int> cols;
    for (const auto& [col, refs] : access_refs_.at(q->id)) {
      auto it = probed.find(col);
      if (it == probed.end() || refs > it->second) cols.push_back(col);
    }
    return cols;
  }

  // ---- generic box dispatch ----

  Result<OperatorPtr> PlanBox(Box* box, ParamEnv* env) {
    // Common subexpression: share a materialized result when allowed.
    if (options_.materialize_common_subexpressions &&
        box->kind() != BoxKind::kBaseTable &&
        graph_->UsesOf(box).size() > 1 && !HasCorrelation(box)) {
      auto it = shared_.find(box->id());
      if (it == shared_.end()) {
        auto shared = std::make_shared<SharedSubplan>();
        DECORR_ASSIGN_OR_RETURN(shared->plan, PlanBoxNoShare(box, env));
        shared->width = box->num_outputs();
        it = shared_.emplace(box->id(), std::move(shared)).first;
      }
      return OperatorPtr(std::make_unique<CachedMaterializeOp>(it->second));
    }
    return PlanBoxNoShare(box, env);
  }

  Result<OperatorPtr> PlanBoxNoShare(Box* box, ParamEnv* env) {
    switch (box->kind()) {
      case BoxKind::kBaseTable: {
        std::vector<int> projection(box->table->schema().num_columns());
        for (size_t i = 0; i < projection.size(); ++i) {
          projection[i] = static_cast<int>(i);
        }
        return OperatorPtr(std::make_unique<SeqScanOp>(
            box->table, std::move(projection), nullptr));
      }
      case BoxKind::kSelect:
        return PlanSelect(box, env);
      case BoxKind::kGroupBy:
        return PlanGroupBy(box, env);
      case BoxKind::kUnion:
        return PlanUnion(box, env);
    }
    return Status::Internal("unknown box kind");
  }

  // ---- GroupBy ----

  Result<OperatorPtr> PlanGroupBy(Box* box, ParamEnv* env) {
    Quantifier* q = box->quantifiers()[0];
    DECORR_ASSIGN_OR_RETURN(OperatorPtr child, PlanBox(q->child, env));

    std::map<SlotKey, int> slots;
    for (int i = 0; i < q->child->num_outputs(); ++i) {
      slots[{q->id, i}] = i;
    }
    SlotContext sctx;
    sctx.slots = &slots;
    sctx.env = env;

    std::vector<ExprPtr> keys;
    for (const ExprPtr& key : box->group_by) {
      DECORR_ASSIGN_OR_RETURN(ExprPtr slotted, Slotify(*key, sctx));
      keys.push_back(std::move(slotted));
    }

    // Aggregates from outputs, in first-appearance order.
    std::vector<AggSpec> aggs;
    std::vector<const Expr*> agg_nodes;
    for (const OutputColumn& out : box->outputs) {
      VisitExpr(*out.expr, [&](const Expr& node) {
        if (node.kind != ExprKind::kAggregate) return;
        for (const Expr* seen : agg_nodes) {
          if (ExprEquals(*seen, node)) return;
        }
        agg_nodes.push_back(&node);
      });
    }
    for (const Expr* node : agg_nodes) {
      AggSpec spec;
      spec.kind = node->agg;
      spec.distinct = node->distinct;
      spec.result_type = node->type;
      if (!node->children.empty()) {
        DECORR_ASSIGN_OR_RETURN(spec.arg, Slotify(*node->children[0], sctx));
      }
      aggs.push_back(std::move(spec));
    }

    OperatorPtr agg_op = std::make_unique<HashAggregateOp>(
        std::move(child), std::move(keys), std::move(aggs));

    // Map box outputs onto the aggregate's (keys..., aggs...) layout.
    const int num_keys = static_cast<int>(box->group_by.size());
    std::vector<ExprPtr> projections;
    for (const OutputColumn& out : box->outputs) {
      DECORR_ASSIGN_OR_RETURN(
          ExprPtr proj,
          RebaseGroupOutput(*out.expr, box, agg_nodes, num_keys, sctx));
      projections.push_back(std::move(proj));
    }
    return OperatorPtr(
        std::make_unique<ProjectOp>(std::move(agg_op), std::move(projections)));
  }

  // Rewrites a group-box output expression over the aggregate operator's
  // output layout: aggregates -> slot num_keys+i, group-key refs -> key slot.
  Result<ExprPtr> RebaseGroupOutput(const Expr& expr, Box* box,
                                    const std::vector<const Expr*>& agg_nodes,
                                    int num_keys, const SlotContext& sctx) {
    for (size_t i = 0; i < agg_nodes.size(); ++i) {
      if (ExprEquals(*agg_nodes[i], expr)) {
        return MakeSlotRef(num_keys + static_cast<int>(i), expr.type);
      }
    }
    if (expr.kind == ExprKind::kColumnRef) {
      if (!box->OwnsQuantifier(expr.qid)) {
        // Correlated reference: resolve through the environment.
        return Slotify(expr, sctx);
      }
      // Must match a group key.
      DECORR_ASSIGN_OR_RETURN(ExprPtr slotted, Slotify(expr, sctx));
      for (int k = 0; k < num_keys; ++k) {
        if (ExprEquals(*box->group_by[k], expr)) {
          return MakeSlotRef(k, expr.type, expr.name);
        }
      }
      // Group keys are stored slotted in the operator; compare on the
      // original expression instead.
      for (int k = 0; k < num_keys; ++k) {
        if (box->group_by[k]->kind == ExprKind::kColumnRef &&
            box->group_by[k]->qid == expr.qid &&
            box->group_by[k]->col == expr.col) {
          return MakeSlotRef(k, expr.type, expr.name);
        }
      }
      (void)slotted;
      return Status::Internal("group output column " + expr.ToString() +
                              " does not match any group key");
    }
    ExprPtr clone = expr.Clone();
    for (ExprPtr& child : clone->children) {
      DECORR_ASSIGN_OR_RETURN(
          child, RebaseGroupOutput(*child, box, agg_nodes, num_keys, sctx));
    }
    return clone;
  }

  // ---- Union ----

  Result<OperatorPtr> PlanUnion(Box* box, ParamEnv* env) {
    std::vector<OperatorPtr> children;
    for (Quantifier* q : box->quantifiers()) {
      DECORR_ASSIGN_OR_RETURN(OperatorPtr child, PlanBox(q->child, env));
      children.push_back(std::move(child));
    }
    OperatorPtr out = std::make_unique<UnionAllOp>(std::move(children));
    if (!box->union_all) out = MakeDistinct(std::move(out));
    return out;
  }

  // ---- Select (SPJ) ----

  struct QuantPlanInfo {
    Quantifier* quantifier = nullptr;
    bool lateral = false;      // child subtree references this box
    double card = 1.0;         // estimated local filtered cardinality
    std::vector<int> local_pred_idx;  // predicates referencing only this q
  };

  Result<OperatorPtr> PlanSelect(Box* box, ParamEnv* env) {
    // Working copies of predicates and outputs; subquery markers extracted.
    std::vector<ExprPtr> preds;
    for (const ExprPtr& pred : box->predicates) preds.push_back(pred->Clone());
    std::vector<ExprPtr> outputs;
    for (const OutputColumn& out : box->outputs) {
      outputs.push_back(out.expr->Clone());
    }
    std::vector<SubUnit> units;
    for (ExprPtr& pred : preds) {
      ExtractSubqueryMarkers(pred.get(), box, &units);
    }
    for (ExprPtr& out : outputs) {
      ExtractSubqueryMarkers(out.get(), box, &units);
    }

    // Classify F quantifiers.
    std::vector<QuantPlanInfo> quants;
    for (Quantifier* q : box->quantifiers()) {
      if (q->kind != QuantifierKind::kForeach) continue;
      QuantPlanInfo info;
      info.quantifier = q;
      info.lateral = IsCorrelatedTo(q->child, box);
      quants.push_back(info);
    }

    // Record local predicates (single local quantifier, no placeholders)
    // for cardinality estimation; they are consumed later by the access
    // paths, which mark pred_used themselves.
    std::vector<bool> pred_used(preds.size(), false);
    for (size_t p = 0; p < preds.size(); ++p) {
      std::set<int> qids, placeholders;
      CollectRequirements(*preds[p], box, &qids, &placeholders);
      if (!placeholders.empty() || qids.size() != 1) continue;
      for (QuantPlanInfo& info : quants) {
        if (!info.lateral && info.quantifier->id == *qids.begin()) {
          info.local_pred_idx.push_back(static_cast<int>(p));
        }
      }
    }

    // Estimated local cardinality per joinable quantifier.
    for (QuantPlanInfo& info : quants) {
      double card = estimator_.EstimateBoxRows(info.quantifier->child);
      for (int p : info.local_pred_idx) {
        card *= estimator_.PredicateSelectivity(box, *preds[p]);
      }
      info.card = std::max(card, 1.0);
    }

    // An outer-join box (the COUNT-bug removal's) joins its null-padded
    // quantifier last, after every other quantifier (the preserved side).
    const QuantPlanInfo* padded = nullptr;
    if (box->null_padded_qid >= 0) {
      if (!units.empty()) {
        return Status::NotImplemented(
            "subqueries inside an outer-join select box");
      }
      for (const QuantPlanInfo& info : quants) {
        if (info.quantifier->id == box->null_padded_qid) padded = &info;
      }
      if (padded == nullptr) {
        return Status::Internal("null_padded_qid not among F quantifiers");
      }
    }

    // ---- greedy join order over non-lateral preserved quantifiers ----
    std::vector<const QuantPlanInfo*> order;
    std::vector<double> est_after;  // estimated rows after each step
    {
      std::vector<const QuantPlanInfo*> remaining;
      for (const QuantPlanInfo& info : quants) {
        if (!info.lateral && &info != padded) remaining.push_back(&info);
      }
      if (remaining.empty()) {
        return Status::Internal("select box with no FROM quantifier to join");
      }
      std::sort(remaining.begin(), remaining.end(),
                [](const QuantPlanInfo* a, const QuantPlanInfo* b) {
                  return a->card < b->card;
                });
      std::set<int> bound;
      double current = 0.0;
      while (!remaining.empty()) {
        size_t best = 0;
        double best_card = -1.0;
        for (size_t i = 0; i < remaining.size(); ++i) {
          double card;
          if (order.empty()) {
            card = remaining[i]->card;
          } else {
            card = JoinStepEstimate(preds, bound, current, *remaining[i]);
          }
          if (best_card < 0 || card < best_card) {
            best_card = card;
            best = i;
          }
        }
        order.push_back(remaining[best]);
        bound.insert(remaining[best]->quantifier->id);
        current = best_card;
        est_after.push_back(current);
        remaining.erase(remaining.begin() + best);
      }
    }

    // ---- schedule laterals and subquery units ----
    // position p means "after join step p" (0-based over `order`).
    const int last_step = static_cast<int>(order.size()) - 1;
    auto choose_position = [&](const std::set<int>& required) {
      int earliest = 0;
      std::set<int> bound;
      for (int s = 0; s <= last_step; ++s) {
        bound.insert(order[s]->quantifier->id);
        earliest = s;
        if (std::includes(bound.begin(), bound.end(), required.begin(),
                          required.end())) {
          break;
        }
      }
      // Among legal positions, take the one with the fewest estimated rows
      // (ties go to the latest position, matching "decide late" instincts).
      int best = last_step;
      for (int s = earliest; s <= last_step; ++s) {
        if (est_after[s] < est_after[best]) best = s;
      }
      return best;
    };

    std::map<int, std::vector<SubUnit*>> units_at;     // step -> units
    std::map<int, std::vector<QuantPlanInfo*>> lat_at;  // step -> laterals
    for (SubUnit& unit : units) {
      units_at[choose_position(unit.required_qids)].push_back(&unit);
    }
    for (QuantPlanInfo& info : quants) {
      if (!info.lateral || &info == padded) continue;
      std::set<int> required;
      for (const auto& [qid, col] :
           CorrelationColumnsFrom(info.quantifier->child, box)) {
        (void)col;
        required.insert(qid);
      }
      lat_at[choose_position(required)].push_back(&info);
    }

    // ---- build the operator tree ----
    std::map<SlotKey, int> slots;
    std::map<int, int> placeholder_slots;
    std::set<int> bound_qids;
    std::set<int> bound_placeholders;
    OperatorPtr current;
    int width = 0;

    SlotContext sctx;
    sctx.slots = &slots;
    sctx.placeholder_slots = &placeholder_slots;
    sctx.env = env;

    // Applies every pending predicate whose requirements are satisfied.
    auto apply_ready_preds = [&]() -> Status {
      for (size_t p = 0; p < preds.size(); ++p) {
        if (pred_used[p]) continue;
        std::set<int> qids, placeholders;
        CollectRequirements(*preds[p], box, &qids, &placeholders);
        const bool ready =
            std::includes(bound_qids.begin(), bound_qids.end(), qids.begin(),
                          qids.end()) &&
            std::includes(bound_placeholders.begin(),
                          bound_placeholders.end(), placeholders.begin(),
                          placeholders.end());
        if (!ready) continue;
        DECORR_ASSIGN_OR_RETURN(ExprPtr slotted, Slotify(*preds[p], sctx));
        current = std::make_unique<FilterOp>(std::move(current),
                                             std::move(slotted));
        pred_used[p] = true;
      }
      return Status::OK();
    };

    auto attach_step_extras = [&](int step) -> Status {
      for (QuantPlanInfo* info : lat_at[step]) {
        DECORR_RETURN_IF_ERROR(AttachLateral(box, info, env, &current, &slots,
                                             &width, &bound_qids));
        DECORR_RETURN_IF_ERROR(apply_ready_preds());
      }
      for (SubUnit* unit : units_at[step]) {
        DECORR_RETURN_IF_ERROR(AttachSubUnit(box, unit, env, sctx, &current,
                                             &placeholder_slots, &width,
                                             &bound_placeholders));
        DECORR_RETURN_IF_ERROR(apply_ready_preds());
      }
      return Status::OK();
    };

    for (int step = 0; step <= last_step; ++step) {
      const QuantPlanInfo& info = *order[step];
      if (step == 0) {
        DECORR_ASSIGN_OR_RETURN(
            current, BuildAccessPath(box, info, preds, pred_used, env));
        RegisterSlots(info.quantifier, &slots, &width);
        bound_qids.insert(info.quantifier->id);
        DECORR_RETURN_IF_ERROR(apply_ready_preds());
        DECORR_RETURN_IF_ERROR(attach_step_extras(step));
        continue;
      }
      DECORR_ASSIGN_OR_RETURN(
          JoinKeys keys,
          TakeJoinKeys(preds, pred_used, bound_qids, info.quantifier, sctx));
      const bool any_null_safe =
          std::find(keys.null_safe.begin(), keys.null_safe.end(), true) !=
          keys.null_safe.end();
      // Small-outer + indexed base table: index nested-loop join (the
      // access pattern the paper's NI plans and decoupled subqueries rely
      // on). Otherwise hash join on the extracted keys, else a cross
      // product. Null-safe keys disqualify index joins: HashIndex drops
      // NULL-key rows at build time, exactly the rows a binding join must
      // find.
      bool used_index_join = false;
      std::vector<int> index_join_cols;
      if (options_.use_indexes && !keys.left.empty() && !any_null_safe &&
          info.quantifier->child->kind() == BoxKind::kBaseTable &&
          est_after[step - 1] <
              static_cast<double>(info.quantifier->child->table->num_rows())) {
        DECORR_ASSIGN_OR_RETURN(
            used_index_join,
            TryIndexJoin(box, info, preds, pred_used, env, keys.left,
                         keys.right, width, &current, &index_join_cols));
      }
      if (!used_index_join) {
        DECORR_ASSIGN_OR_RETURN(
            OperatorPtr right,
            BuildAccessPath(box, info, preds, pred_used, env));
        current = MakeJoin(std::move(current), std::move(right),
                           std::move(keys), nullptr, JoinType::kInner);
      }
      RegisterSlots(info.quantifier, &slots, &width,
                    used_index_join ? &index_join_cols : nullptr);
      bound_qids.insert(info.quantifier->id);
      DECORR_RETURN_IF_ERROR(apply_ready_preds());
      DECORR_RETURN_IF_ERROR(attach_step_extras(step));
    }

    // The null-padded quantifier joins last, as a left outer join: its
    // equalities with the preserved side are the hash keys and every other
    // predicate on it is the join condition, evaluated over the joined row,
    // so a preserved row that meets none of them is padded, not dropped.
    if (padded != nullptr) {
      DECORR_ASSIGN_OR_RETURN(
          JoinKeys keys,
          TakeJoinKeys(preds, pred_used, bound_qids, padded->quantifier, sctx));
      std::vector<int> on_padded;
      for (size_t p = 0; p < preds.size(); ++p) {
        std::set<int> qids, placeholders;
        CollectRequirements(*preds[p], box, &qids, &placeholders);
        if (!pred_used[p] && qids.count(padded->quantifier->id)) {
          on_padded.push_back(static_cast<int>(p));
        }
      }
      DECORR_ASSIGN_OR_RETURN(
          OperatorPtr right,
          BuildAccessPath(box, *padded, preds, pred_used, env));
      RegisterSlots(padded->quantifier, &slots, &width);
      DECORR_ASSIGN_OR_RETURN(
          ExprPtr condition,
          TakeConjunction(on_padded, preds, pred_used, sctx));
      current = MakeJoin(std::move(current), std::move(right),
                         std::move(keys), std::move(condition),
                         JoinType::kLeftOuter);
    }

    // Any predicate still pending is a bug in the scheduling above.
    for (size_t p = 0; p < preds.size(); ++p) {
      if (!pred_used[p]) {
        return Status::Internal("predicate was never applied: " +
                                preds[p]->ToString());
      }
    }

    // Final projection (+ DISTINCT).
    std::vector<ExprPtr> projections;
    for (ExprPtr& out : outputs) {
      DECORR_ASSIGN_OR_RETURN(ExprPtr slotted, Slotify(*out, sctx));
      projections.push_back(std::move(slotted));
    }
    current = std::make_unique<ProjectOp>(std::move(current),
                                          std::move(projections));
    if (box->distinct) {
      current = MakeDistinct(std::move(current));
    } else if (box->dedup_check && options_.check_derived_keys) {
      // A DISTINCT was pruned here on the strength of a derived key; assert
      // the key at runtime so a wrong derivation fails loudly.
      current = std::make_unique<UniquenessCheckOp>(std::move(current),
                                                    box->dedup_key);
    }
    return current;
  }

  // ---- helpers ----

  // The column references of `pred` when it is an equality (plain or
  // null-safe) between a column of a `bound` quantifier and a column of
  // quantifier `qid`, bound side first; {nullptr, nullptr} otherwise.
  static std::pair<const Expr*, const Expr*> JoinKeyPair(
      const Expr& pred, const std::set<int>& bound, int qid) {
    if (pred.kind != ExprKind::kComparison ||
        (pred.op != BinaryOp::kEq && pred.op != BinaryOp::kNullEq)) {
      return {nullptr, nullptr};
    }
    const Expr* lhs = pred.children[0].get();
    const Expr* rhs = pred.children[1].get();
    if (lhs->kind != ExprKind::kColumnRef ||
        rhs->kind != ExprKind::kColumnRef) {
      return {nullptr, nullptr};
    }
    if (bound.count(lhs->qid) && rhs->qid == qid) return {lhs, rhs};
    if (bound.count(rhs->qid) && lhs->qid == qid) return {rhs, lhs};
    return {nullptr, nullptr};
  }

  double JoinStepEstimate(const std::vector<ExprPtr>& preds,
                          const std::set<int>& bound, double current,
                          const QuantPlanInfo& next) {
    double card = current * next.card;
    for (const ExprPtr& pred : preds) {
      const auto [bound_side, next_side] =
          JoinKeyPair(*pred, bound, next.quantifier->id);
      if (bound_side == nullptr) continue;
      const Quantifier* bq = graph_->FindQuantifier(bound_side->qid);
      const double ndv =
          std::max(estimator_.EstimateDistinct(bq->child, bound_side->col),
                   estimator_.EstimateDistinct(next.quantifier->child,
                                               next_side->col));
      card /= std::max(ndv, 1.0);
    }
    return std::max(card, 1.0);
  }

  struct JoinKeys {
    std::vector<ExprPtr> left;   // over the bound row
    std::vector<ExprPtr> right;  // over the joining quantifier's row
    std::vector<bool> null_safe;
  };

  // Takes every pending JoinKeyPair between the bound quantifiers and q as
  // a join key: the bound side slotted by `sctx`, q's side over q's
  // access-path row.
  Result<JoinKeys> TakeJoinKeys(const std::vector<ExprPtr>& preds,
                                std::vector<bool>& pred_used,
                                const std::set<int>& bound_qids,
                                const Quantifier* q, const SlotContext& sctx) {
    std::map<SlotKey, int> q_slots;
    int q_width = 0;
    RegisterSlots(q, &q_slots, &q_width);
    SlotContext q_ctx;
    q_ctx.slots = &q_slots;
    q_ctx.env = sctx.env;
    JoinKeys keys;
    for (size_t p = 0; p < preds.size(); ++p) {
      if (pred_used[p]) continue;
      const auto [bound_side, q_side] =
          JoinKeyPair(*preds[p], bound_qids, q->id);
      if (bound_side == nullptr) continue;
      DECORR_ASSIGN_OR_RETURN(ExprPtr left, Slotify(*bound_side, sctx));
      DECORR_ASSIGN_OR_RETURN(ExprPtr right, Slotify(*q_side, q_ctx));
      keys.left.push_back(std::move(left));
      keys.right.push_back(std::move(right));
      keys.null_safe.push_back(preds[p]->op == BinaryOp::kNullEq);
      pred_used[p] = true;
    }
    return keys;
  }

  // A hash join on `keys`, or a nested-loop join when there are none; the
  // join condition beyond the keys is `condition` (may be null).
  static OperatorPtr MakeJoin(OperatorPtr left, OperatorPtr right,
                              JoinKeys keys, ExprPtr condition,
                              JoinType type) {
    if (keys.left.empty()) {
      return std::make_unique<NestedLoopJoinOp>(
          std::move(left), std::move(right), std::move(condition), type);
    }
    return std::make_unique<HashJoinOp>(
        std::move(left), std::move(right), std::move(keys.left),
        std::move(keys.right), std::move(condition), type,
        std::move(keys.null_safe));
  }

  // Appends q's columns to a row layout: `cols` when given (an index join's
  // projection), else the projected columns of a base-table FROM
  // quantifier (AccessColumns), else every output.
  void RegisterSlots(const Quantifier* q, std::map<SlotKey, int>* slots,
                     int* width, const std::vector<int>* cols = nullptr) {
    if (cols == nullptr && access_refs_.count(q->id) == 0) {
      for (int i = 0; i < q->child->num_outputs(); ++i) {
        (*slots)[{q->id, i}] = (*width)++;
      }
      return;
    }
    for (int col : cols != nullptr ? *cols : AccessColumns(q)) {
      (*slots)[{q->id, col}] = (*width)++;
    }
  }

  // Predicates still pending that q's access path takes over
  // (IsAccessLocal).
  std::vector<int> LocalPredicates(Box* box, const Quantifier* q,
                                   const std::vector<ExprPtr>& preds,
                                   const std::vector<bool>& pred_used) {
    std::vector<int> local;
    for (size_t p = 0; p < preds.size(); ++p) {
      if (!pred_used[p] && IsAccessLocal(*box, *preds[p], q->id)) {
        local.push_back(static_cast<int>(p));
      }
    }
    return local;
  }

  // The conjunction of the still-unused `local` predicates slotted by
  // `sctx` (null when none is left); marks them used.
  Result<ExprPtr> TakeConjunction(const std::vector<int>& local,
                                  const std::vector<ExprPtr>& preds,
                                  std::vector<bool>& pred_used,
                                  const SlotContext& sctx) {
    std::vector<ExprPtr> parts;
    for (int p : local) {
      if (pred_used[p]) continue;
      DECORR_ASSIGN_OR_RETURN(ExprPtr part, Slotify(*preds[p], sctx));
      parts.push_back(std::move(part));
      pred_used[p] = true;
    }
    if (parts.empty()) return ExprPtr();
    return MakeAnd(std::move(parts));
  }

  // Builds an IndexJoinOp joining *current against `info`'s base table when
  // an index covers the join keys. Consumes left_keys/right_keys and the
  // quantifier's local predicates on success, and returns the table
  // columns the join appends in *projection.
  Result<bool> TryIndexJoin(Box* box, const QuantPlanInfo& info,
                            std::vector<ExprPtr>& preds,
                            std::vector<bool>& pred_used,
                            ParamEnv* env, std::vector<ExprPtr>& left_keys,
                            std::vector<ExprPtr>& right_keys, int left_width,
                            OperatorPtr* current,
                            std::vector<int>* projection) {
    Quantifier* q = info.quantifier;
    TablePtr table = q->child->table;
    // Right keys must be plain column slots; they index q's access layout,
    // the index speaks table columns.
    const std::vector<int> layout = AccessColumns(q);
    std::vector<int> right_cols;
    for (const ExprPtr& key : right_keys) {
      if (key->kind != ExprKind::kColumnRef || key->slot < 0) return false;
      right_cols.push_back(layout[key->slot]);
    }
    std::shared_ptr<HashIndex> index =
        catalog_.FindIndexCoveredBy(table->schema().name(), right_cols);
    if (index == nullptr) return false;

    // Probe keys in index column order. The probe consumes those pairs, so
    // a column read by nothing else is not projected; uncovered pairs stay
    // a residual over the combined row.
    std::vector<ExprPtr> probe_keys;
    std::vector<bool> consumed(right_cols.size(), false);
    std::map<int, int> probed;
    for (int index_col : index->key_columns()) {
      bool found = false;
      for (size_t i = 0; i < right_cols.size(); ++i) {
        if (!consumed[i] && right_cols[i] == index_col) {
          probe_keys.push_back(left_keys[i]->Clone());
          consumed[i] = true;
          ++probed[index_col];
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    *projection = AccessColumns(q, probed);
    std::vector<ExprPtr> residuals;
    for (size_t i = 0; i < right_cols.size(); ++i) {
      if (consumed[i]) continue;
      const auto at = std::find(projection->begin(), projection->end(),
                                right_cols[i]);
      const ColumnDef& col = table->schema().column(right_cols[i]);
      residuals.push_back(MakeComparison(
          BinaryOp::kEq, left_keys[i]->Clone(),
          MakeSlotRef(left_width + static_cast<int>(at - projection->begin()),
                      col.type, col.name)));
    }
    ExprPtr residual;
    if (!residuals.empty()) residual = MakeAnd(std::move(residuals));
    // Local predicates of this quantifier filter the raw table row.
    DECORR_ASSIGN_OR_RETURN(
        ExprPtr table_filter,
        TakeConjunction(LocalPredicates(box, q, preds, pred_used), preds,
                        pred_used, TableSlots(q, env).ctx));
    *current = std::make_unique<IndexJoinOp>(
        std::move(*current), table, index, std::move(probe_keys), *projection,
        std::move(table_filter), std::move(residual));
    return true;
  }

  // Slot context resolving q's columns to raw table ordinals: the row an
  // access path's own predicates see.
  struct TableSlots {
    TableSlots(const Quantifier* q, ParamEnv* env) {
      for (int i = 0; i < q->child->table->num_columns(); ++i) {
        slots[{q->id, i}] = i;
      }
      ctx.slots = &slots;
      ctx.env = env;
    }
    TableSlots(const TableSlots&) = delete;
    TableSlots& operator=(const TableSlots&) = delete;

    std::map<SlotKey, int> slots;
    SlotContext ctx;
  };

  // Access path for one F quantifier with its local predicates, which it
  // consumes (marking pred_used).
  Result<OperatorPtr> BuildAccessPath(Box* box, const QuantPlanInfo& info,
                                      std::vector<ExprPtr>& preds,
                                      std::vector<bool>& pred_used,
                                      ParamEnv* env) {
    Quantifier* q = info.quantifier;
    const std::vector<int> local = LocalPredicates(box, q, preds, pred_used);

    if (q->child->kind() == BoxKind::kBaseTable && !info.lateral) {
      TablePtr table = q->child->table;
      const TableSlots table_slots(q, env);
      const std::vector<int> projection = AccessColumns(q);

      // Try an index for equality predicates col = <non-local>.
      std::vector<int> eq_cols;
      std::map<int, const Expr*> eq_rhs;  // table col -> rhs expr
      std::map<int, int> eq_pred;         // table col -> pred index
      for (int p : local) {
        const Expr& pred = *preds[p];
        if (pred.kind != ExprKind::kComparison || pred.op != BinaryOp::kEq) {
          continue;
        }
        const Expr* lhs = pred.children[0].get();
        const Expr* rhs = pred.children[1].get();
        if (rhs->kind == ExprKind::kColumnRef && rhs->qid == q->id) {
          std::swap(lhs, rhs);
        }
        if (lhs->kind != ExprKind::kColumnRef || lhs->qid != q->id) continue;
        // rhs must not reference this quantifier.
        const bool rhs_local = AnyNode(*rhs, [&](const Expr& node) {
          return node.kind == ExprKind::kColumnRef && node.qid == q->id;
        });
        if (rhs_local) continue;
        if (eq_rhs.count(lhs->col)) continue;
        eq_cols.push_back(lhs->col);
        eq_rhs[lhs->col] = rhs;
        eq_pred[lhs->col] = p;
      }
      std::shared_ptr<HashIndex> index;
      if (options_.use_indexes && !eq_cols.empty()) {
        index = catalog_.FindIndexCoveredBy(table->schema().name(), eq_cols);
      }
      if (index != nullptr) {
        std::vector<ExprPtr> keys;
        for (int col : index->key_columns()) {
          DECORR_ASSIGN_OR_RETURN(ExprPtr key,
                                  Slotify(*eq_rhs[col], table_slots.ctx));
          keys.push_back(std::move(key));
          pred_used[eq_pred[col]] = true;
        }
        DECORR_ASSIGN_OR_RETURN(
            ExprPtr residual,
            TakeConjunction(local, preds, pred_used, table_slots.ctx));
        return OperatorPtr(std::make_unique<IndexLookupOp>(
            table, index, std::move(keys), projection, std::move(residual)));
      }
      // Sequential scan with fused filter.
      DECORR_ASSIGN_OR_RETURN(
          ExprPtr filter,
          TakeConjunction(local, preds, pred_used, table_slots.ctx));
      return OperatorPtr(std::make_unique<SeqScanOp>(
          table, std::move(projection), std::move(filter)));
    }

    // Non-base child (derived table / group / union): plan recursively,
    // apply local predicates as a filter.
    DECORR_ASSIGN_OR_RETURN(OperatorPtr op, PlanBox(q->child, env));
    std::map<SlotKey, int> child_slots;
    int w = 0;
    RegisterSlots(q, &child_slots, &w);
    SlotContext sctx;
    sctx.slots = &child_slots;
    sctx.env = env;
    DECORR_ASSIGN_OR_RETURN(ExprPtr filter,
                            TakeConjunction(local, preds, pred_used, sctx));
    if (filter) {
      op = std::make_unique<FilterOp>(std::move(op), std::move(filter));
    }
    return op;
  }

  // An Apply/lateral inner plan that turned out to draw no parameters from
  // its outer row is loop-invariant; with hoisting enabled it moves into the
  // SharedSubplan compute-once path, so the per-outer-row re-opens iterate
  // one materialized result (persisting even across re-opens of the
  // enclosing operator, unlike the executor's per-Open invariant caching).
  OperatorPtr MaybeHoistInvariant(OperatorPtr inner, int width) {
    if (!hoist_invariant_subplans_) return inner;
    auto shared = std::make_shared<SharedSubplan>();
    shared->plan = std::move(inner);
    shared->width = width;
    return std::make_unique<CachedMaterializeOp>(std::move(shared));
  }

  // Plans one correlated derived table as a lateral join step.
  Status AttachLateral(Box* box, QuantPlanInfo* info, ParamEnv* env,
                       OperatorPtr* current, std::map<SlotKey, int>* slots,
                       int* width, std::set<int>* bound_qids) {
    (void)box;
    ParamEnv child_env;
    child_env.parent = env;
    child_env.outer_slots = slots;
    DECORR_ASSIGN_OR_RETURN(OperatorPtr inner,
                            PlanBoxNoShare(info->quantifier->child,
                                           &child_env));
    const int inner_width = info->quantifier->child->num_outputs();
    if (child_env.sources.empty()) {
      inner = MaybeHoistInvariant(std::move(inner), inner_width);
    }
    *current = std::make_unique<ApplyOp>(std::move(*current),
                                         std::move(inner),
                                         std::move(child_env.sources),
                                         inner_width);
    RegisterSlots(info->quantifier, slots, width);
    bound_qids->insert(info->quantifier->id);
    return Status::OK();
  }

  // Plans one subquery unit, appending a verdict/value slot.
  //
  // Fast path: when the subquery child is "CI-like" — a Select whose
  // predicates are all binding equalities `local-col = outer-col` and whose
  // body is otherwise uncorrelated (exactly what magic decorrelation's CI
  // boxes look like when the consumer could not merge them) — the inner
  // body is executed ONCE, hashed on the binding columns, and probed per
  // row. This is the "index on a temporary relation" execution of Section
  // 4.4. Otherwise: a plain nested-iteration Apply.
  Status AttachSubUnit(Box* box, SubUnit* unit, ParamEnv* env,
                       const SlotContext& sctx, OperatorPtr* current,
                       std::map<int, int>* placeholder_slots, int* width,
                       std::set<int>* bound_placeholders) {
    Box* child = unit->quantifier->child;
    DECORR_ASSIGN_OR_RETURN(
        bool done, TryGroupProbe(box, unit, child, env, sctx, current));
    if (!done) {
      ParamEnv child_env;
      child_env.parent = env;
      child_env.outer_slots = sctx.slots;
      DECORR_ASSIGN_OR_RETURN(OperatorPtr inner,
                              PlanBoxNoShare(child, &child_env));
      if (child_env.sources.empty()) {
        inner = MaybeHoistInvariant(std::move(inner), child->num_outputs());
      }
      DECORR_ASSIGN_OR_RETURN(SubquerySemantics semantics,
                              Semantics(*unit, sctx));
      *current = std::make_unique<ApplyOp>(
          std::move(*current), std::move(inner),
          std::move(child_env.sources), std::move(semantics));
    }
    (*placeholder_slots)[unit->placeholder_qid] = (*width)++;
    bound_placeholders->insert(unit->placeholder_qid);
    return Status::OK();
  }

  // Attempts the CI-like group-probe plan; returns true on success.
  Result<bool> TryGroupProbe(Box* box, SubUnit* unit, Box* child,
                             ParamEnv* env, const SlotContext& sctx,
                             OperatorPtr* current) {
    if (child->kind() != BoxKind::kSelect || child->distinct ||
        child->null_padded_qid >= 0 || child->predicates.empty()) {
      return false;
    }
    // Partition predicates: purely local ones stay in the inner plan;
    // binding equalities `local ref = outer ref` (with the local side
    // exposed verbatim in the child's outputs) become hash keys; anything
    // else defeats the fast path.
    std::vector<int> inner_key_cols;
    std::vector<const Expr*> outer_sides;
    std::vector<size_t> binding_pred_idx;
    for (size_t p = 0; p < child->predicates.size(); ++p) {
      const ExprPtr& pred = child->predicates[p];
      const bool references_outside = AnyNode(*pred, [&](const Expr& node) {
        return node.kind == ExprKind::kColumnRef &&
               !child->OwnsQuantifier(node.qid);
      });
      if (!references_outside) continue;  // stays in the inner plan
      // Plain or null-safe binding equality. kNullEq needs no special
      // probing here: a NULL binding's group is always empty (the inner
      // body re-applies the original null-rejecting correlation predicate),
      // so skipping the NULL probe gives the same verdict.
      if (pred->kind != ExprKind::kComparison ||
          (pred->op != BinaryOp::kEq && pred->op != BinaryOp::kNullEq)) {
        return false;
      }
      const Expr* lhs = pred->children[0].get();
      const Expr* rhs = pred->children[1].get();
      if (lhs->kind != ExprKind::kColumnRef ||
          rhs->kind != ExprKind::kColumnRef) {
        return false;
      }
      const Expr* local = nullptr;
      const Expr* outer = nullptr;
      if (child->OwnsQuantifier(lhs->qid) && box->OwnsQuantifier(rhs->qid)) {
        local = lhs;
        outer = rhs;
      } else if (child->OwnsQuantifier(rhs->qid) &&
                 box->OwnsQuantifier(lhs->qid)) {
        local = rhs;
        outer = lhs;
      } else {
        return false;
      }
      int ordinal = -1;
      for (int i = 0; i < child->num_outputs(); ++i) {
        const Expr* out = child->outputs[i].expr.get();
        if (out && out->kind == ExprKind::kColumnRef &&
            out->qid == local->qid && out->col == local->col) {
          ordinal = i;
          break;
        }
      }
      if (ordinal < 0) return false;
      inner_key_cols.push_back(ordinal);
      outer_sides.push_back(outer);
      binding_pred_idx.push_back(p);
    }
    if (binding_pred_idx.empty()) return false;

    // Plan the child without its binding predicates. The body must come out
    // parameter-free (no deeper correlation), otherwise fall back.
    std::vector<ExprPtr> saved = std::move(child->predicates);
    child->predicates.clear();
    for (size_t p = 0; p < saved.size(); ++p) {
      if (std::find(binding_pred_idx.begin(), binding_pred_idx.end(), p) ==
          binding_pred_idx.end()) {
        child->predicates.push_back(saved[p]->Clone());
      }
    }
    ParamEnv child_env;
    child_env.parent = env;
    child_env.outer_slots = sctx.slots;
    Result<OperatorPtr> inner = PlanBoxNoShare(child, &child_env);
    child->predicates = std::move(saved);
    if (!inner.ok()) return inner.status();
    if (!child_env.sources.empty()) return false;

    std::vector<ExprPtr> probe_keys;
    for (const Expr* outer : outer_sides) {
      DECORR_ASSIGN_OR_RETURN(ExprPtr key, Slotify(*outer, sctx));
      probe_keys.push_back(std::move(key));
    }
    DECORR_ASSIGN_OR_RETURN(SubquerySemantics semantics,
                            Semantics(*unit, sctx));
    *current = std::make_unique<ApplyOp>(
        std::move(*current), inner.MoveValue(), std::move(inner_key_cols),
        std::move(probe_keys), std::move(semantics));
    return true;
  }

  const Catalog& catalog_;
  const PlannerOptions& options_;
  const bool hoist_invariant_subplans_;
  CardEstimator estimator_;
  QueryGraph* graph_ = nullptr;
  std::map<int, std::shared_ptr<SharedSubplan>> shared_;
  // Base-table FROM quantifier id -> table column -> references outside
  // its access path (CollectAccessColumns).
  std::map<int, std::map<int, int>> access_refs_;
};

// ----------------------------------------------------------------------------

Planner::Planner(const Catalog& catalog, PlannerOptions options,
                 bool hoist_invariant_subplans)
    : catalog_(catalog),
      options_(options),
      hoist_invariant_subplans_(hoist_invariant_subplans) {}

Result<PhysicalPlan> Planner::PlanGraph(QueryGraph* graph) {
  Impl impl(catalog_, options_, hoist_invariant_subplans_);
  return impl.PlanRoot(graph);
}

Result<PhysicalPlan> Planner::PlanQuery(const BoundQuery& bound) {
  DECORR_FAULT_POINT("planner.plan");
  DECORR_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanGraph(bound.graph.get()));
  if (!bound.order_by.empty()) {
    plan.root = std::make_unique<SortOp>(std::move(plan.root), bound.order_by);
  }
  if (bound.limit >= 0) {
    plan.root = std::make_unique<LimitOp>(std::move(plan.root), bound.limit);
  }
  return plan;
}

}  // namespace decorr
