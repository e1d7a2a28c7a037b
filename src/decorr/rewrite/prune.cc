#include "decorr/rewrite/prune.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "decorr/analysis/properties.h"
#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"
#include "decorr/expr/expr.h"

namespace decorr {

namespace {

std::string KeyToString(const std::vector<int>& key) {
  std::string out = "{";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", key[i]);
  }
  out += "}";
  return out;
}

std::string BoxName(const Box* box) {
  if (!box->label.empty()) {
    return StrFormat("box %d (%s)", box->id(), box->label.c_str());
  }
  return StrFormat("box %d", box->id());
}

std::set<const Box*> ReachableBoxes(const QueryGraph& graph) {
  std::set<const Box*> reachable;
  std::vector<const Box*> stack;
  if (graph.root() != nullptr) stack.push_back(graph.root());
  while (!stack.empty()) {
    const Box* box = stack.back();
    stack.pop_back();
    if (!reachable.insert(box).second) continue;
    for (const Quantifier* q : box->quantifiers()) {
      stack.push_back(q->child);
    }
  }
  return reachable;
}

// ---- Rule A ---------------------------------------------------------------

bool TryClearDistinct(QueryGraph* graph, Box* box) {
  if (box->kind() != BoxKind::kSelect || !box->distinct) return false;
  if (!box->dedup_pruned.empty()) return false;
  {
    PropertyDeriver deriver(graph);
    if (!deriver.Derive(box).duplicate_free_without_distinct) return false;
  }
  box->distinct = false;
  // Re-derive without the flag to pick the witnessing key (the flag itself
  // contributed an all-columns key we must not rely on).
  PropertyDeriver deriver(graph);
  const BoxProperties& props = deriver.Derive(box);
  if (!props.HasKey()) {
    box->distinct = true;  // derivation disagreement: keep the dedup
    return false;
  }
  const ColumnSet* best = &props.keys[0];
  for (const ColumnSet& key : props.keys) {
    if (key.size() < best->size()) best = &key;
  }
  box->dedup_key = *best;
  box->dedup_check = true;
  box->dedup_pruned = StrFormat("DISTINCT dropped, derived key %s",
                                KeyToString(*best).c_str());
  return true;
}

// ---- Rule B ---------------------------------------------------------------

// A J-local witness column: a pure column reference to one of J's foreach
// quantifiers whose value provably *is* a column of the source box `target`
// (it flows up through pure-projection, non-null-padded column-ref chains
// from the same DAG node). `path` is the quantifier chain traversed; two
// witnesses with identical paths carry columns of the same source row.
struct Trace {
  bool ok = false;
  std::vector<int> path;  // quantifier ids, J-level first
  int source_col = -1;    // output ordinal of `target`
};

Trace TraceToSource(const Box* owner, const Expr& ref, const Box* target) {
  Trace trace;
  if (ref.kind != ExprKind::kColumnRef) return trace;
  const Quantifier* cur = owner->FindQuantifier(ref.qid);
  int cur_col = ref.col;
  if (cur == nullptr || cur->kind != QuantifierKind::kForeach) return trace;
  while (true) {
    if (trace.path.size() > 64) return trace;  // malformed-graph guard
    trace.path.push_back(cur->id);
    const Box* child = cur->child;
    if (child == target) {
      trace.source_col = cur_col;
      trace.ok = cur_col >= 0 && cur_col < target->num_outputs();
      return trace;
    }
    if (cur_col < 0 || cur_col >= static_cast<int>(child->outputs.size())) {
      return trace;
    }
    const Expr* out = child->outputs[cur_col].expr.get();
    if (out == nullptr || out->kind != ExprKind::kColumnRef) return trace;
    switch (child->kind()) {
      case BoxKind::kSelect:
        break;
      case BoxKind::kGroupBy: {
        // Only group-key outputs carry an input value through unchanged.
        bool is_group_key = false;
        for (const ExprPtr& g : child->group_by) {
          if (ExprEquals(*out, *g)) {
            is_group_key = true;
            break;
          }
        }
        if (!is_group_key) return trace;
        break;
      }
      default:
        return trace;  // base table / union: cannot continue the chain
    }
    const Quantifier* next = child->FindQuantifier(out->qid);
    if (next == nullptr || next->kind != QuantifierKind::kForeach) {
      return trace;
    }
    // A null-padded column may be padding rather than a source-row value.
    if (child->null_padded_qid == next->id) return trace;
    cur = next;
    cur_col = out->col;
  }
}

bool TryEliminateBackJoin(QueryGraph* graph, Box* join, Quantifier* qm) {
  if (join->kind() != BoxKind::kSelect) return false;
  if (join->null_padded_qid >= 0) return false;  // outer joins: preserved
                                                 // rows survive unmatched
  if (qm->kind != QuantifierKind::kForeach) return false;
  if (join->quantifiers().size() < 2) return false;
  Box* source = qm->child;

  PropertyDeriver deriver(graph);
  const BoxProperties& source_props = deriver.Derive(source);
  if (!source_props.duplicate_free || !source_props.HasKey()) return false;

  // Classify every predicate that references qm. Each must be a binding
  // equality  qm.$i (=|<=>) <witness>  whose witness traces to source.$i.
  struct Binding {
    const Expr* pred;
    int ordinal;
    const Expr* witness;
    bool null_safe;
    Trace trace;
  };
  std::vector<Binding> bindings;
  for (const ExprPtr& pred : join->predicates) {
    const bool touches_qm = AnyNode(*pred, [qm](const Expr& node) {
      return node.kind == ExprKind::kColumnRef && node.qid == qm->id;
    });
    if (!touches_qm) continue;
    if (pred->kind != ExprKind::kComparison || pred->children.size() != 2 ||
        (pred->op != BinaryOp::kEq && pred->op != BinaryOp::kNullEq)) {
      return false;
    }
    const Expr* lhs = pred->children[0].get();
    const Expr* rhs = pred->children[1].get();
    const Expr* bound = nullptr;
    const Expr* witness = nullptr;
    if (lhs->kind == ExprKind::kColumnRef && lhs->qid == qm->id) {
      bound = lhs;
      witness = rhs;
    } else if (rhs->kind == ExprKind::kColumnRef && rhs->qid == qm->id) {
      bound = rhs;
      witness = lhs;
    } else {
      return false;
    }
    if (AnyNode(*witness, [qm](const Expr& node) {
          return node.kind == ExprKind::kColumnRef && node.qid == qm->id;
        })) {
      return false;
    }
    Trace trace = TraceToSource(join, *witness, source);
    if (!trace.ok || trace.source_col != bound->col) return false;
    bindings.push_back(
        {pred.get(), bound->col, witness, pred->op == BinaryOp::kNullEq,
         std::move(trace)});
  }
  if (bindings.empty()) return false;

  // Common-witness requirement: all bindings must come up one quantifier
  // chain, so their witnesses are columns of a single source row.
  for (const Binding& b : bindings) {
    if (b.trace.path != bindings[0].trace.path) return false;
    // Plain `=` drops NULL bindings that `<=>` (and removal) would keep;
    // only safe when the source column can never be NULL.
    if (!b.null_safe && source_props.nullable[b.ordinal]) return false;
  }

  // Witnesses are copied out: they live inside the binding predicates,
  // which the rewrite below erases before retargeting references.
  struct WitnessRef {
    int qid;
    int col;
    std::string name;
  };
  ColumnSet covered;
  std::map<int, WitnessRef> witness_for;
  for (const Binding& b : bindings) {
    covered.push_back(b.ordinal);
    witness_for.emplace(b.ordinal, WitnessRef{b.witness->qid, b.witness->col,
                                              b.witness->name});
  }
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  if (!source_props.HasKeyWithin(covered)) return false;

  // Every other reference to qm — in this box's outputs and remaining
  // predicates, or correlated references from descendants — must be to a
  // bound ordinal so it can be rewritten onto its witness.
  std::set<const Expr*> dropped;
  for (const Binding& b : bindings) dropped.insert(b.pred);
  for (const std::unique_ptr<Box>& box : graph->boxes()) {
    for (const Expr* root : box->AllExprs()) {
      if (dropped.count(root) != 0) continue;
      bool substitutable = true;
      VisitExpr(*root, [&](const Expr& node) {
        if (node.kind == ExprKind::kColumnRef && node.qid == qm->id &&
            witness_for.find(node.col) == witness_for.end()) {
          substitutable = false;
        }
      });
      if (!substitutable) return false;
    }
  }

  // ---- Apply: drop the binding predicates, retarget every remaining qm
  // reference onto its witness, delete the quantifier.
  join->predicates.erase(
      std::remove_if(join->predicates.begin(), join->predicates.end(),
                     [&dropped](const ExprPtr& pred) {
                       return dropped.count(pred.get()) != 0;
                     }),
      join->predicates.end());
  for (const std::unique_ptr<Box>& box : graph->boxes()) {
    for (Expr* root : box->AllExprs()) {
      VisitExprMutable(root, [&](Expr* node) {
        if (node->kind != ExprKind::kColumnRef || node->qid != qm->id) return;
        const WitnessRef& witness = witness_for.at(node->col);
        node->qid = witness.qid;
        node->col = witness.col;
        node->name = witness.name;
      });
    }
  }
  const std::string reason = StrFormat(
      "back-join over duplicate-free %s eliminated (bindings %s cover a key)",
      BoxName(source).c_str(), KeyToString(covered).c_str());
  if (join->dco_magic_qid == qm->id || join->dco_child_qid == qm->id) {
    join->dco_magic_qid = -1;
    join->dco_child_qid = -1;
  }
  graph->DeleteQuantifier(qm->id);
  if (join->dedup_pruned.empty()) {
    join->dedup_pruned = reason;
  } else {
    join->dedup_pruned += "; " + reason;
  }
  return true;
}

}  // namespace

Status PruneRedundantDedup(QueryGraph* graph, const RewriteStepFn& on_step) {
  DECORR_FAULT_POINT("rewrite.prune.dedup");
  // One rule application per round, properties re-derived from scratch each
  // time (applications invalidate previously derived keys). Bounded to keep
  // adversarial graphs linear.
  for (int round = 0; round < 64; ++round) {
    const std::set<const Box*> reachable = ReachableBoxes(*graph);
    bool applied = false;
    for (const std::unique_ptr<Box>& box : graph->boxes()) {
      if (reachable.count(box.get()) == 0) continue;
      if (TryClearDistinct(graph, box.get())) {
        applied = true;
        break;
      }
      for (Quantifier* q : box->quantifiers()) {
        if (TryEliminateBackJoin(graph, box.get(), q)) {
          applied = true;
          break;
        }
      }
      if (applied) break;
    }
    if (!applied) return Status::OK();
    graph->GarbageCollect();
    Status step = NotifyRewriteStep(on_step, "prune-dedup");
    if (!step.ok()) return step;
  }
  return Status::OK();
}

}  // namespace decorr
