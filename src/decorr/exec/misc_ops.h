// Union, sort, limit and shared-result materialization operators.
#ifndef DECORR_EXEC_MISC_OPS_H_
#define DECORR_EXEC_MISC_OPS_H_

#include <memory>
#include <mutex>
#include <vector>

#include "decorr/exec/operator.h"

namespace decorr {

// Concatenates children (UNION ALL; MakeDistinct over it is UNION).
class UnionAllOp : public Operator {
 public:
  explicit UnionAllOp(std::vector<OperatorPtr> children);

  std::string name() const override { return "UnionAll"; }
  std::string ToString(int indent) const override;
  int output_width() const override { return children_[0]->output_width(); }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  std::vector<OperatorPtr> children_;
  ExecContext* ctx_ = nullptr;
  size_t current_ = 0;
};

// Full sort on (ordinal, ascending) keys using the Value total order.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<std::pair<int, bool>> sort_keys);

  std::string name() const override { return "Sort"; }
  std::string ToString(int indent) const override;
  int output_width() const override { return child_->output_width(); }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<std::pair<int, bool>> sort_keys_;
  ExecContext* ctx_ = nullptr;
  std::vector<Row> rows_;
  int64_t charged_bytes_ = 0;  // sort-buffer memory charged to the guard
  size_t cursor_ = 0;
};

class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit);

  std::string name() const override { return "Limit"; }
  std::string ToString(int indent) const override;
  int output_width() const override { return child_->output_width(); }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

// Shared materialization of a common subexpression: whichever consumer
// Opens first computes the subplan once; every consumer then iterates the
// cached rows. This is the "materialize the supplementary table"
// alternative the paper wishes Starburst had (Sections 5.1/5.3); without
// it, plans simply embed duplicate subtrees and recompute.
struct SharedSubplan {
  OperatorPtr plan;
  int width = 0;
  bool computed = false;
  std::vector<Row> rows;
  // Memory charged when the shared rows were computed; intentionally held
  // for the rest of the query (the cache lives that long).
  int64_t charged_bytes = 0;
  // The first-Open-computes handshake runs under this lock (the cached rows
  // are immutable once `computed`). A query runs on one thread, so it is
  // never contended; it keeps the handshake sound should consumers ever
  // Open from different threads.
  std::mutex mu;
};

class CachedMaterializeOp : public Operator {
 public:
  explicit CachedMaterializeOp(std::shared_ptr<SharedSubplan> shared);

  std::string name() const override { return "CachedMaterialize"; }
  std::string ToString(int indent) const override;
  int output_width() const override { return shared_->width; }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  std::shared_ptr<SharedSubplan> shared_;
  size_t cursor_ = 0;
};

}  // namespace decorr

#endif  // DECORR_EXEC_MISC_OPS_H_
