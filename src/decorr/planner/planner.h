// Lowers a QGM to a physical operator tree.
//
// Highlights:
//   * greedy stats-driven join ordering within SPJ boxes, with hash joins on
//     extracted equality predicates and index-lookup access paths for
//     equality predicates over constants or correlation parameters;
//   * correlated subqueries (E/A/S quantifiers that survive rewriting — all
//     of them under pure nested iteration) lower to Apply operators whose
//     placement is chosen by estimated invocation count, reproducing the
//     plan split the paper describes for Query 1 vs Query 2;
//   * correlated derived tables lower to lateral joins (nested iteration);
//   * boxes referenced by several quantifiers (common subexpressions, e.g.
//     the magic rewrite's supplementary table) are either re-planned per use
//     (recompute — Starburst's behaviour per Section 5.1) or shared through
//     a CachedMaterialize operator (the materialization alternative).
#ifndef DECORR_PLANNER_PLANNER_H_
#define DECORR_PLANNER_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "decorr/binder/binder.h"
#include "decorr/catalog/catalog.h"
#include "decorr/exec/operator.h"
#include "decorr/qgm/qgm.h"

namespace decorr {

struct PlannerOptions {
  bool use_indexes = true;
  // Materialize uncorrelated boxes used by more than one quantifier instead
  // of re-planning (recomputing) them per use.
  bool materialize_common_subexpressions = false;
  // Plant a runtime UniquenessCheckOp wherever rewrite/prune.cc dropped a
  // DISTINCT on the strength of a derived candidate key (Box::dedup_check),
  // so a wrong derivation fails the query loudly instead of silently
  // returning duplicates. Defaults on in Debug builds; goldens and benches
  // turn it off explicitly for build-type-independent plans.
#ifdef NDEBUG
  bool check_derived_keys = false;
#else
  bool check_derived_keys = true;
#endif
};

struct PhysicalPlan {
  OperatorPtr root;
  std::vector<std::string> column_names;
  // "dedup pruned: <reason>" annotations collected from the QGM during
  // lowering, rendered after the operator tree in EXPLAIN.
  std::vector<std::string> notes;

  std::string ToString() const {
    std::string out = root ? root->ToString(0) : "(empty)";
    for (const std::string& note : notes) out += note + "\n";
    return out;
  }
};

class Planner {
 public:
  // `hoist_invariant_subplans` moves fully-uncorrelated Apply/lateral inner
  // subplans into the SharedSubplan compute-once path, so re-opening the
  // inner per outer row iterates a materialized result instead of
  // recomputing. The runtime sets it whenever subquery memoization is on;
  // off keeps plans byte-identical to the uncached ones.
  Planner(const Catalog& catalog, PlannerOptions options = {},
          bool hoist_invariant_subplans = false);

  // Plans the graph's root box.
  Result<PhysicalPlan> PlanGraph(QueryGraph* graph);

  // Plans a bound query including ORDER BY / LIMIT decoration.
  Result<PhysicalPlan> PlanQuery(const BoundQuery& bound);

 private:
  class Impl;
  const Catalog& catalog_;
  PlannerOptions options_;
  bool hoist_invariant_subplans_;
};

}  // namespace decorr

#endif  // DECORR_PLANNER_PLANNER_H_
