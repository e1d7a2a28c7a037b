// The two TPC-D workloads: the paper's Figures 5-9 queries, one closed-loop
// client, every answer checked against a nested-iteration reference.
//
//   tpcd_indexed  SF 0.1 with every Table 1 index, dop 1: fig5, fig6, fig8
//                 and fig9 under NI, NI+C, Mag, OptMag and Auto. The executor
//                 does almost all the work.
//   tpcd_noindex  the Figure 7 regime (both partsupp indexes dropped) at
//                 dop = min(4, cores): fig5 under the same five strategies
//                 plus fig7 under Mag, OptMag and Auto. fig7 NI and NI+C are
//                 left out: at 8-14 s a query they would swamp the window,
//                 and fig5_noindex NI already runs the same expensive Apply.
//                 Not declared in BENCHMARK.json: too unsteady on a shared
//                 host (BENCH.md, "tpcd_noindex").
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "decorr/common/rng.h"
#include "decorr/runtime/database.h"
#include "decorr/tpcd/queries.h"
#include "decorr/tpcd/tpcd.h"
#include "calibrate.h"
#include "report.h"

namespace perfbench {
namespace {

using decorr::Database;
using decorr::QueryOptions;
using decorr::Strategy;

// One query class of a mix: a figure's SQL under one strategy. `weight` is
// its number of copies in each shuffled deck of the mix.
struct QueryClass {
  std::string fig;
  Strategy strategy = Strategy::kNestedIteration;
  int weight = 1;
  std::string sql;
  std::string name() const { return fig + "." + StrategySlug(strategy); }
};

struct TpcdWorkload {
  bool noindex;
  int dop;
  std::vector<QueryClass> classes;
};

// Deck weights keep the latency percentiles inside one class rather than on
// the boundary between two, where run-to-run noise would flip them between
// classes (BENCH.md, "Mix"). Sorted by latency, the 28-query indexed deck
// puts 12 queries below fig8 OptMag, 4 of fig8 OptMag, and 12 above, so
// rank 50% falls in the middle of fig8 OptMag -- 35% above fig8's NI
// cluster and 35% below fig8 Mag. The top 3 are fig6 Mag, so rank 95%
// falls inside it.
TpcdWorkload IndexedWorkload() {
  const std::string q1 = decorr::TpcdQuery1();
  const std::string q1v = decorr::TpcdQuery1Variant();
  const std::string q2 = decorr::TpcdQuery2();
  const std::string q3 = decorr::TpcdQuery3();
  const Strategy kNi = Strategy::kNestedIteration;
  const Strategy kNiC = Strategy::kNestedIterationCached;
  const Strategy kMag = Strategy::kMagic;
  const Strategy kOpt = Strategy::kOptMagic;
  const Strategy kAuto = Strategy::kAuto;
  return {false, 1,
          {{"fig5", kNi, 1, q1},     {"fig5", kNiC, 1, q1},
           {"fig5", kMag, 1, q1},    {"fig5", kOpt, 1, q1},
           {"fig5", kAuto, 1, q1},   {"fig6", kNi, 1, q1v},
           {"fig6", kNiC, 1, q1v},   {"fig6", kMag, 3, q1v},
           {"fig6", kOpt, 1, q1v},   {"fig6", kAuto, 2, q1v},
           {"fig8", kNi, 1, q2},     {"fig8", kNiC, 1, q2},
           {"fig8", kMag, 2, q2},    {"fig8", kOpt, 4, q2},
           {"fig8", kAuto, 1, q2},   {"fig9", kNi, 2, q3},
           {"fig9", kNiC, 1, q3},    {"fig9", kMag, 1, q3},
           {"fig9", kOpt, 1, q3},    {"fig9", kAuto, 1, q3}}};
}

// The 24-query noindex deck: twenty fig5_noindex NI, NI+C, OptMag and Auto
// queries, which run within a few percent of each other, and the four
// classes twice as slow (fig5_noindex Mag, fig7 Mag, OptMag and Auto). Rank
// 50% falls inside the first group, rank 95% inside the second. Weighting
// the cheap group keeps the deck's mean latency low, so that a window of
// kMinLatencySamples queries lasts about as long as a run's seconds.
TpcdWorkload NoindexWorkload() {
  const std::string q1 = decorr::TpcdQuery1();
  const std::string q1v = decorr::TpcdQuery1Variant();
  return {true, std::min(4, HardwareThreads()),
          {{"fig5_noindex", Strategy::kNestedIteration, 5, q1},
           {"fig5_noindex", Strategy::kNestedIterationCached, 5, q1},
           {"fig5_noindex", Strategy::kMagic, 1, q1},
           {"fig5_noindex", Strategy::kOptMagic, 5, q1},
           {"fig5_noindex", Strategy::kAuto, 5, q1},
           {"fig7", Strategy::kMagic, 1, q1v},
           {"fig7", Strategy::kOptMagic, 1, q1v},
           {"fig7", Strategy::kAuto, 1, q1v}}};
}

// LoadTpcd loads, analyzes and indexes: it is the whole set-up. It is timed
// this many times before the window and this many after it, and setup_s is
// the median, scaled by the speed readings taken around every load. One
// load is a single sample, the first also pays for growing the heap, and
// loads on both sides of the window see the machine as the window saw it,
// not only as it was before.
constexpr int kLoadsBefore = 3;
constexpr int kLoadsAfter = 2;

QueryOptions OptionsFor(const QueryClass& c, int dop) {
  QueryOptions options;
  options.strategy = c.strategy;
  // A rewrite that fails must count as an error, not silently measure NI.
  options.fallback = false;
  options.dop = dop;
  return options;
}

// Layer probes: single-operator SQL through Database, timed by the engine's
// own exec phase clock and divided by the base-table rows it visited. They
// run at dop 1, so each figure is one operator's cost per row.
struct Probe {
  const char* metric;
  const char* sql;
};
constexpr Probe kProbes[] = {
    {"exec.scan_ns_per_row.int_cmp",
     "SELECT COUNT(*) FROM lineitem l WHERE l.l_quantity < 25"},
    {"exec.scan_ns_per_row.str_eq",
     "SELECT COUNT(*) FROM parts p WHERE p.p_brand = 'Brand#13'"},
    {"exec.scan_ns_per_row.like",
     "SELECT COUNT(*) FROM parts p WHERE p.p_type LIKE '%BRASS'"},
    {"exec.scan_ns_per_row.in",
     "SELECT COUNT(*) FROM parts p WHERE p.p_size IN (1, 15, 30)"},
    // A hash join: 40 French suppliers built, 600k lineitem rows probed.
    {"exec.hash_join_ns_per_row",
     "SELECT COUNT(*) FROM lineitem l, suppliers s "
     "WHERE l.l_suppkey = s.s_suppkey AND s.s_nation = 'FRANCE'"},
    // A grouped aggregate: 600k rows into 20k groups.
    {"exec.hash_agg_ns_per_row",
     "SELECT l.l_partkey, SUM(l.l_quantity) FROM lineitem l "
     "GROUP BY l.l_partkey"},
};

// A seeded sequence of decks of class indices: each deck holds every class
// `weight` times, in a fresh shuffled order.
class Mix {
 public:
  Mix(const std::vector<QueryClass>& classes, uint64_t seed) : rng_(seed) {
    for (size_t i = 0; i < classes.size(); ++i) {
      for (int k = 0; k < classes[i].weight; ++k) deck_.push_back(i);
    }
  }
  const std::vector<size_t>& NextDeck() {
    for (size_t i = deck_.size(); i > 1; --i) {
      const size_t j =
          static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(i) - 1));
      std::swap(deck_[i - 1], deck_[j]);
    }
    return deck_;
  }

 private:
  decorr::Rng rng_;
  std::vector<size_t> deck_;
};

class TpcdRun {
 public:
  TpcdRun(const Args& args, TpcdWorkload workload, Report* report)
      : args_(args), w_(std::move(workload)), report_(report),
        tracer_(args.trace), window_gauge_(w_.dop),
        class_ms_(w_.classes.size()) {}

  bool Run();

 private:
  bool Setup();
  // One timed LoadTpcd into a fresh database, which replaces db_.
  bool Load();
  bool ComputeReferences();
  void Warmup();
  // Runs decks of the mix for `seconds` and until at least `min_samples`
  // queries ran. With a log, each query goes through the layer entry points
  // one call at a time, recording spans.
  WindowResult Window(double seconds, int64_t min_samples, Mix* mix,
                      SpanLog* log);
  bool TracedQuery(size_t cls, SpanLog* log);
  // Per-class medians of the untraced windows: not declared metrics, but
  // they show where each class sits relative to the percentile ranks.
  void ReportClasses();
  void ReportLayers(const WindowResult& untraced, const WindowResult& traced);
  void ReportProbes();
  void ReportDopSpeedup();
  void ReportAnalyze();
  bool Correct(size_t cls, const std::vector<decorr::Row>& rows) const {
    return Canon(rows) == references_[cls];
  }

  const Args& args_;
  TpcdWorkload w_;
  Report* report_;
  Tracer tracer_;
  decorr::TpcdConfig config_;
  std::unique_ptr<Database> db_;
  std::vector<double> loads_s_;  // every timed LoadTpcd
  SpeedGauge setup_gauge_{1};    // readings around the loads
  SpeedGauge window_gauge_;      // readings between the decks, dop threads
  std::vector<std::vector<std::string>> references_;  // per class
  std::vector<std::vector<double>> class_ms_;  // untraced latencies per class
};

bool TpcdRun::Setup() {
  // The paper's database: the generator's default seed, whatever the
  // workload seed. Derived from the workload seed instead, fig5's few
  // qualifying parts -- and with them the cost of its NI classes -- swing by
  // a quarter between seeds, more than any bound could absorb.
  config_.scale_factor = args_.smoke ? 0.01 : 0.1;
  for (int r = 0; r < (args_.smoke ? 1 : kLoadsBefore); ++r) {
    if (!Load()) return false;
  }
  report_->Meta("scale_factor", config_.scale_factor);
  report_->Meta("tpcd_seed", static_cast<double>(config_.seed));
  return true;
}

bool TpcdRun::Load() {
  db_.reset();  // free the previous copy before timing the next load
  setup_gauge_.Read();
  const int64_t t0 = NowNanos();
  auto db = std::make_unique<Database>();
  const decorr::Status st = decorr::LoadTpcd(db.get(), config_);
  const int64_t t1 = NowNanos();
  if (!st.ok()) {
    report_->Fail("LoadTpcd: " + st.ToString());
    return false;
  }
  setup_gauge_.Read();
  loads_s_.push_back((t1 - t0) / 1e9);
  db_ = std::move(db);
  return true;
}

// NI answers, computed untimed before the window. The Figure 7 regime's
// references are taken while the partsupp indexes still exist: the answer
// does not depend on indexes, and fig7 NI without them takes seconds.
bool TpcdRun::ComputeReferences() {
  references_.assign(w_.classes.size(), {});
  std::vector<std::pair<std::string, std::vector<std::string>>> by_sql;
  for (size_t i = 0; i < w_.classes.size(); ++i) {
    const std::string& sql = w_.classes[i].sql;
    auto it = std::find_if(by_sql.begin(), by_sql.end(),
                           [&sql](const auto& e) { return e.first == sql; });
    if (it == by_sql.end()) {
      QueryOptions ni;
      ni.strategy = Strategy::kNestedIteration;
      ni.fallback = false;
      auto result = db_->Execute(sql, ni);
      if (!result.ok()) {
        report_->Fail("NI reference for " + w_.classes[i].fig + ": " +
                      result.status().ToString());
        return false;
      }
      by_sql.push_back({sql, Canon(result->rows)});
      it = by_sql.end() - 1;
    }
    references_[i] = it->second;
  }
  if (w_.noindex) {
    for (const char* index : {"partsupp_partkey", "partsupp_suppkey"}) {
      const decorr::Status st = db_->DropIndex("partsupp", index);
      if (!st.ok()) {
        report_->Fail(std::string("DropIndex ") + index + ": " + st.ToString());
        return false;
      }
    }
  }
  return true;
}

// Runs every class once before timing: lazy set-up and first-touch costs
// are not what the window measures.
void TpcdRun::Warmup() {
  for (const QueryClass& c : w_.classes) {
    (void)db_->Execute(c.sql, OptionsFor(c, w_.dop));
  }
}

WindowResult TpcdRun::Window(double seconds, int64_t min_samples, Mix* mix,
                             SpanLog* log) {
  WindowResult window;
  // A speed reading before every deck and after the last; the window's
  // clocks skip them.
  const int64_t start = NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  // Whole decks only, so every statistic sees the mix's exact class counts;
  // the window overruns its seconds by at most one deck, or by as many as
  // it takes to collect `min_samples`.
  while (NowNanos() < deadline || window.attempted < min_samples) {
    window_gauge_.Read();
    WindowBin bin;
    const int64_t bin_start = NowNanos();
    const double bin_cpu = ProcessCpuSeconds();
    for (const size_t cls : mix->NextDeck()) {
      const QueryClass& c = w_.classes[cls];
      const int64_t t0 = NowNanos();
      bool ok = false;
      if (log != nullptr) {
        ok = TracedQuery(cls, log);
      } else {
        auto result = db_->Execute(c.sql, OptionsFor(c, w_.dop));
        ok = result.ok() && Correct(cls, result->rows);
      }
      const double ms = (NowNanos() - t0) / 1e6;
      ++window.attempted;
      if (!ok) {
        ++window.failed;
        continue;
      }
      window.latencies_ms.push_back(ms);
      if (log == nullptr) class_ms_[cls].push_back(ms);
      bin.latencies_ms.push_back(ms);
    }
    bin.seconds = (NowNanos() - bin_start) / 1e9;
    bin.cpu_seconds = ProcessCpuSeconds() - bin_cpu;
    window.seconds += bin.seconds;
    window.cpu_seconds += bin.cpu_seconds;
    window.bins.push_back(std::move(bin));
  }
  window_gauge_.Read();
  return window;
}

void TpcdRun::ReportClasses() {
  for (size_t i = 0; i < w_.classes.size(); ++i) {
    report_->Metric("class_p50_ms." + w_.classes[i].name(),
                    Median(class_ms_[i]), "ms");
  }
}

bool TpcdRun::TracedQuery(size_t cls, SpanLog* log) {
  const QueryClass& c = w_.classes[cls];
  const int64_t req = log->Begin("request", -1, -1, c.name());
  const auto rows =
      TraceQuery(db_.get(), c.sql, OptionsFor(c, w_.dop), req, log);
  log->End(req);
  return rows.has_value() && Correct(cls, *rows);
}

void TpcdRun::ReportLayers(const WindowResult& untraced,
                           const WindowResult& traced) {
  const std::vector<Span> spans = tracer_.Collect();
  const std::vector<RequestTree> requests = GroupRequests(spans);
  report_->Metric("tpcd.load_s", Median(loads_s_), "s");
  ReportFrontEnd(requests, report_);

  // Per class: exec time (execute minus plan) of every traced query, and
  // the first query's execute span, whose counters repeat exactly.
  std::vector<std::vector<double>> exec_ms(w_.classes.size());
  std::vector<const Span*> first_exec(w_.classes.size(), nullptr);
  for (const RequestTree& r : requests) {
    const Span* exec = r.Child("exec.RunPrepared.execute");
    if (exec == nullptr) continue;  // a failed query
    for (size_t i = 0; i < w_.classes.size(); ++i) {
      if (r.root->label != w_.classes[i].name()) continue;
      const double plan_us = r.ChildMicros("planner.RunPrepared.plan");
      exec_ms[i].push_back(std::max(0.0, exec->micros() - plan_us) / 1e3);
      if (first_exec[i] == nullptr) first_exec[i] = exec;
    }
  }
  for (size_t i = 0; i < w_.classes.size(); ++i) {
    report_->Metric("exec.ms." + w_.classes[i].name(), Median(exec_ms[i]),
                    "ms");
  }

  // Work counts weighted by each class's share of a deck: they repeat
  // exactly for a seed, whatever the window's length.
  std::vector<ExecSample> samples;
  std::map<std::string, double> picks;
  for (size_t i = 0; i < w_.classes.size(); ++i) {
    if (first_exec[i] == nullptr) continue;
    samples.push_back({static_cast<double>(w_.classes[i].weight),
                       first_exec[i], Median(exec_ms[i])});
    if (w_.classes[i].strategy == Strategy::kAuto) {
      picks[StrategySlug(static_cast<Strategy>(
          first_exec[i]->Counter("effective_strategy")))] +=
          w_.classes[i].weight;
    }
  }
  ReportExecWork(samples, report_);
  ReportAutoPicks(picks, report_);
  ReportTraceOverhead(untraced.Qps(), traced.Qps(), spans.size(), report_);

  if (!args_.spans_path.empty() &&
      !WriteSpanFile(args_.spans_path, args_, spans)) {
    report_->Fail("cannot write " + args_.spans_path);
  }
}

void TpcdRun::ReportProbes() {
  const int reps = args_.smoke ? 1 : 7;
  for (const Probe& probe : kProbes) {
    QueryOptions options;
    options.fallback = false;
    std::vector<double> ns_per_row;
    for (int r = 0; r < reps; ++r) {
      auto result = db_->Execute(probe.sql, options);
      if (!result.ok()) {
        report_->Fail(std::string(probe.metric) + ": " +
                      result.status().ToString());
        break;
      }
      const int64_t rows = std::max<int64_t>(1, result->stats.rows_scanned);
      ns_per_row.push_back(static_cast<double>(result->profile.exec_nanos) /
                           static_cast<double>(rows));
    }
    report_->Metric(probe.metric, Median(ns_per_row), "ns");
  }
}

// Exec time at dop 1 over exec time at the workload's dop, per class.
void TpcdRun::ReportDopSpeedup() {
  const int reps = args_.smoke ? 1 : 3;
  for (const QueryClass& c : w_.classes) {
    std::vector<double> serial, parallel;
    for (int r = 0; r < reps; ++r) {
      auto one = db_->Execute(c.sql, OptionsFor(c, 1));
      auto many = db_->Execute(c.sql, OptionsFor(c, w_.dop));
      if (!one.ok() || !many.ok()) continue;
      serial.push_back(static_cast<double>(one->profile.exec_nanos));
      parallel.push_back(static_cast<double>(many->profile.exec_nanos));
    }
    const double par = Median(parallel);
    report_->Metric("exec.dop_speedup." + c.name(),
                    par > 0 ? Median(serial) / par : 0.0, "ratio");
  }
}

// ANALYZE of the whole database: one row appended to every table makes all
// statistics stale, then AnalyzeAll recomputes them. Runs last: the rows
// would change some answers.
void TpcdRun::ReportAnalyze() {
  for (const std::string& name : db_->catalog().TableNames()) {
    auto table = db_->catalog().GetTable(name);
    if (!table.ok()) continue;
    decorr::Row row;
    for (const decorr::ColumnDef& col : (*table)->schema().columns()) {
      switch (col.type) {
        case decorr::TypeId::kInt64:
          row.push_back(decorr::Value::Int64(-1));
          break;
        case decorr::TypeId::kDouble:
          row.push_back(decorr::Value::Double(-1.0));
          break;
        case decorr::TypeId::kString:
          row.push_back(decorr::Value::String("perfbench"));
          break;
        default:
          row.push_back(decorr::Value::Null());
      }
    }
    (void)db_->Insert(name, {row});
  }
  const int64_t t0 = NowNanos();
  const decorr::Status st = db_->AnalyzeAll();
  const int64_t t1 = NowNanos();
  if (!st.ok()) report_->Fail("AnalyzeAll: " + st.ToString());
  report_->Metric("catalog.analyze_ms", (t1 - t0) / 1e6, "ms");
}

bool TpcdRun::Run() {
  report_->Meta("dop", w_.dop);
  report_->Meta("clients", 1);
  if (!Setup() || !ComputeReferences()) return false;
  Warmup();
  Mix mix(w_.classes, args_.seed * 104729 + 3);
  if (!args_.trace) {
    const WindowResult window =
        Window(args_.seconds, kMinLatencySamples, &mix, nullptr);
    report_->Count(window.attempted, window.failed);
    ReportClasses();
    for (int r = 0; r < (args_.smoke ? 0 : kLoadsAfter); ++r) {
      if (!Load()) return false;
    }
    report_->Meta("setup_reps", static_cast<double>(loads_s_.size()));
    report_->Metric("speed.readings", window_gauge_.readings(), "count");
    ReportEndToEnd(window, window_gauge_.Scale(), Median(loads_s_),
                   setup_gauge_.Scale(), report_);
    return true;
  }
  // Traced run: untraced and traced slices alternate, so the traced qps is
  // set against an untraced one from the same process and the same minutes:
  // the host's speed drifts over minutes (calibrate.h), and two halves of
  // the window differed by more than the tracing costs. Neither kind reports
  // percentiles, so neither needs a minimum sample count.
  constexpr int kTraceRounds = 5;
  const double slice = args_.seconds / (2 * kTraceRounds);
  SpanLog* log = tracer_.NewLog();
  WindowResult untraced, traced;
  for (int r = 0; r < kTraceRounds; ++r) {
    untraced.Append(Window(slice, 0, &mix, nullptr));
    traced.Append(Window(slice, 0, &mix, log));
  }
  report_->Count(untraced.attempted, untraced.failed);
  report_->Count(traced.attempted, traced.failed);
  report_->Meta("setup_reps", static_cast<double>(loads_s_.size()));
  ReportClasses();
  ReportLayers(untraced, traced);
  ReportProbes();
  if (w_.noindex) ReportDopSpeedup();
  ReportAnalyze();
  return true;
}

}  // namespace

bool RunTpcdIndexed(const Args& args, Report* report) {
  TpcdRun run(args, IndexedWorkload(), report);
  return run.Run();
}

bool RunTpcdNoindex(const Args& args, Report* report) {
  TpcdRun run(args, NoindexWorkload(), report);
  return run.Run();
}

}  // namespace perfbench
