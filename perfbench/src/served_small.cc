// served_small: one Server over a small seeded EMP/DEPT/PROJ database, three
// closed-loop reader sessions and a writer that runs between them.
//
// Readers run seeded correlated queries (depth <= 3: aggregate comparisons
// including the COUNT-bug shapes, [NOT] EXISTS, [NOT] IN, ANY/ALL) under
// kAuto. Two reads in three come from a hot set far below the plan cache's
// 256 entries, so they hit; the third is a fresh text -- a cold query with
// freshly named aliases -- which misses, runs the whole front end and evicts.
//
// The window runs in segments. After each, with no reader running, the
// writer appends an emp or proj row on a building no dept row uses through
// Server::Mutate, then runs ANALYZE: no answer changes, but the statistics
// epoch moves and every cached plan invalidates, so each segment opens with
// its hot reads missing. A writer running beside the readers lands whenever
// the reader-preferring data lock lets it in, and that timing moved
// throughput from run to run by more than a bound could absorb.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "decorr/common/rng.h"
#include "decorr/common/string_util.h"
#include "decorr/runtime/database.h"
#include "decorr/server/server.h"
#include "decorr/server/session.h"
#include "calibrate.h"
#include "report.h"

namespace perfbench {
namespace {

using decorr::Database;
using decorr::QueryOptions;
using decorr::ResourceGuard;
using decorr::Rng;
using decorr::Status;
using decorr::StrFormat;
using decorr::Strategy;
using decorr::Value;

constexpr int kReaders = 3;
// Query patterns per set; multiples of the generator's 12 strata.
constexpr int kHotQueries = 72;  // well below the plan cache's 256 entries
constexpr int kColdQueries = 384;
// No dept row is ever on this building, so rows on it never join.
constexpr int64_t kWriterBuilding = 1000;
// Timed server starts before the window and after it; setup_s is their
// median. Starts on both sides of the window see the machine as the window
// saw it, not only as it was before.
constexpr int kStartsBefore = 11;
constexpr int kStartsAfter = 10;
// A window runs as this many segments. The writer mutates once after each,
// and the untraced run takes a speed reading (calibrate.h) before each and
// after the last, while no reader runs.
constexpr int kSegments = 10;
// One read in this many is a fresh text; the rest come from the hot set.
// Not one in two: hits and misses form two separate latency humps, and with
// half of each the median would sit on the gap between them.
constexpr int64_t kFreshEvery = 3;

// ---- Database ----

Value NullOr(Rng* rng, Value v) {
  return rng->Bernoulli(0.2) ? Value::Null() : std::move(v);
}

// Small, NULL-bearing tables: values in [0, 60], a handful of buildings so
// correlations both hit and miss. dept.budget is a declared unique key, so
// magic rewrites that bind on it have dedup work to prune.
Status BuildDatabase(uint64_t seed, Database* db) {
  Rng rng(seed * 2654435761ULL + 11);
  const int64_t buildings = 5;
  auto building = [&rng, buildings] {
    return NullOr(&rng, Value::Int64(rng.Uniform(0, buildings + 1)));
  };

  decorr::TableSchema dept("dept",
                           {{"name", decorr::TypeId::kString, false},
                            {"budget", decorr::TypeId::kInt64, false},
                            {"num_emps", decorr::TypeId::kInt64, false},
                            {"building", decorr::TypeId::kInt64, true}},
                           {0});
  dept.AddUniqueKey({1});
  DECORR_RETURN_IF_ERROR(db->CreateTable(dept));
  std::vector<int64_t> budgets(61);
  for (int64_t i = 0; i <= 60; ++i) budgets[i] = i;
  std::vector<decorr::Row> rows;
  for (int64_t i = 0; i < 12; ++i) {
    std::swap(budgets[i], budgets[rng.Uniform(i, 60)]);  // distinct budgets
    rows.push_back({Value::String(StrFormat("d%lld", (long long)i)),
                    Value::Int64(budgets[i]), Value::Int64(rng.Uniform(0, 8)),
                    building()});
  }
  DECORR_RETURN_IF_ERROR(db->Insert("dept", rows));

  for (const char* table : {"emp", "proj"}) {
    const bool is_emp = std::string(table) == "emp";
    DECORR_RETURN_IF_ERROR(db->CreateTable(decorr::TableSchema(
        table,
        {{is_emp ? "emp_id" : "proj_id", decorr::TypeId::kInt64, false},
         {"building", decorr::TypeId::kInt64, true},
         {is_emp ? "salary" : "cost", decorr::TypeId::kInt64, true}},
        {0})));
    rows.clear();
    const int64_t n = is_emp ? 40 : 30;
    for (int64_t i = 0; i < n; ++i) {
      rows.push_back({Value::Int64(i), building(),
                      NullOr(&rng, Value::Int64(rng.Uniform(0, 60)))});
    }
    DECORR_RETURN_IF_ERROR(db->Insert(table, rows));
  }
  return db->AnalyzeAll();
}

// ---- Queries ----

// Seeded correlated-query generator. Aliases are written as "@N" and
// instantiated by Instantiate(): renaming aliases changes the text (and the
// plan cache key) but not the answer.
class QueryGen {
 public:
  static constexpr int kShapes = 4;  // aggregate, EXISTS, IN, ANY/ALL
  static constexpr int kMaxDepth = 3;

  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  // A query whose outermost subquery has `shape` and which nests exactly
  // `depth` correlated subqueries.
  std::string Next(int shape, int depth) {
    alias_ = 0;
    const char* col = rng_.Bernoulli(0.5) ? "num_emps" : "budget";
    return "SELECT d.name FROM dept d WHERE " +
           Predicate("d", col, depth, shape);
  }

 private:
  const char* Cmp() {
    static const char* kCmp[] = {"<", "<=", "=", "<>", ">=", ">"};
    return kCmp[rng_.Uniform(0, 5)];
  }

  // A predicate on `outer`.`col` holding one subquery correlated on
  // building, with `depth` - 1 further levels nested in its WHERE.
  std::string Predicate(const std::string& outer, const std::string& col,
                        int depth, int shape) {
    const bool emp = rng_.Bernoulli(0.5);
    const char* table = emp ? "emp" : "proj";
    const char* val = emp ? "salary" : "cost";
    const std::string a = StrFormat("@%d", ++alias_);
    std::string where =
        StrFormat("%s.building = %s.building", a.c_str(), outer.c_str());
    if (rng_.Bernoulli(0.4)) {
      where += StrFormat(" AND %s.%s %s %lld", a.c_str(), val, Cmp(),
                         (long long)rng_.Uniform(0, 60));
    }
    if (outer == "d" && rng_.Bernoulli(0.35)) {
      // Also on dept's unique budget: the magic binding set then covers a
      // key, so the rewrite's DISTINCT is provably redundant.
      where += StrFormat(" AND %s.%s %s d.budget", a.c_str(), val, Cmp());
    }
    if (depth > 1) {
      where += " AND " + Predicate(a, val, depth - 1,
                                   static_cast<int>(rng_.Uniform(0, 3)));
    }
    const std::string from = StrFormat("FROM %s %s WHERE %s", table,
                                       a.c_str(), where.c_str());
    switch (shape) {
      case 0: {  // aggregate comparison, COUNT-bug shapes included
        static const char* kAgg[] = {"COUNT(*)", "COUNT(%s.%s)", "SUM(%s.%s)",
                                     "MIN(%s.%s)", "AVG(%s.%s)"};
        const std::string agg =
            StrFormat(kAgg[rng_.Uniform(0, 4)], a.c_str(), val);
        return StrFormat("%s.%s %s (SELECT %s %s)", outer.c_str(),
                         col.c_str(), Cmp(), agg.c_str(), from.c_str());
      }
      case 1:
        return StrFormat("%sEXISTS (SELECT 1 %s)",
                         rng_.Bernoulli(0.35) ? "NOT " : "", from.c_str());
      case 2:
        return StrFormat("%s.%s %sIN (SELECT %s.%s %s)", outer.c_str(),
                         col.c_str(), rng_.Bernoulli(0.35) ? "NOT " : "",
                         a.c_str(), val, from.c_str());
      default:
        return StrFormat("%s.%s %s %s (SELECT %s.%s %s)", outer.c_str(),
                         col.c_str(), Cmp(),
                         rng_.Bernoulli(0.5) ? "ANY" : "ALL", a.c_str(), val,
                         from.c_str());
    }
  }

  Rng rng_;
  int alias_ = 0;
};

std::string Instantiate(const std::string& pattern, const std::string& prefix) {
  std::string out;
  out.reserve(pattern.size() + 8 * prefix.size());
  for (char ch : pattern) {
    if (ch == '@') {
      out += prefix;
    } else {
      out += ch;
    }
  }
  return out;
}

QueryOptions ReadOptions() {
  QueryOptions options;
  options.strategy = Strategy::kAuto;
  options.fallback = false;
  return options;
}

struct PoolQuery {
  std::string pattern;
  std::vector<std::string> reference;  // NI answer, row multiset
  Strategy auto_pick = Strategy::kNestedIteration;
};

// ---- The run ----

// One Session::Execute call.
struct Read {
  bool hot = false;
  bool ok = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// One Server::Mutate call, with the AnalyzeAll inside it.
struct Mutation {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t analyze_ns = 0;
  bool ok = false;
};

// What one window of readers and writer recorded.
struct ServedWindow {
  std::vector<std::vector<Read>> reads;  // per reader
  std::vector<Mutation> mutations;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  // (time, process CPU seconds) at the window's start and each second after:
  // the bin boundaries.
  std::vector<std::pair<int64_t, double>> marks;

  // Adds a later window's reads and mutations; the bin marks stay this
  // window's own.
  void Append(const ServedWindow& later);
  // The reads' end-to-end figures (the first window's bins only, when
  // windows were appended).
  WindowResult Reads() const;
  double MutateP50Ms() const;
};

void ServedWindow::Append(const ServedWindow& later) {
  for (size_t r = 0; r < reads.size(); ++r) {
    reads[r].insert(reads[r].end(), later.reads[r].begin(),
                    later.reads[r].end());
  }
  mutations.insert(mutations.end(), later.mutations.begin(),
                   later.mutations.end());
  seconds += later.seconds;
  cpu_seconds += later.cpu_seconds;
}

WindowResult ServedWindow::Reads() const {
  WindowResult w;
  for (size_t b = 1; b < marks.size(); ++b) {
    WindowBin bin;
    bin.seconds = (marks[b].first - marks[b - 1].first) / 1e9;
    bin.cpu_seconds = marks[b].second - marks[b - 1].second;
    w.bins.push_back(bin);
  }
  for (const std::vector<Read>& per_reader : reads) {
    for (const Read& read : per_reader) {
      ++w.attempted;
      if (!read.ok) {
        ++w.failed;
        continue;
      }
      const double ms = (read.end_ns - read.start_ns) / 1e6;
      w.latencies_ms.push_back(ms);
      // A read belongs to the bin it completed in.
      for (size_t b = 1; b < marks.size(); ++b) {
        if (read.end_ns > marks[b - 1].first &&
            read.end_ns <= marks[b].first) {
          w.bins[b - 1].latencies_ms.push_back(ms);
          break;
        }
      }
    }
  }
  w.seconds = seconds;
  w.cpu_seconds = cpu_seconds;
  return w;
}

double ServedWindow::MutateP50Ms() const {
  std::vector<double> ms;
  for (const Mutation& m : mutations) ms.push_back((m.end_ns - m.start_ns) / 1e6);
  return Median(ms);
}

class ServedRun {
 public:
  ServedRun(const Args& args, Report* report)
      : args_(args), report_(report), tracer_(args.trace),
        writer_rng_(args.seed * 97) {}
  bool Run();

 private:
  bool Setup();
  // One timed server start -- load, ANALYZE, server, sessions and a warm
  // plan cache -- replacing server_ and sessions_.
  bool StartServer();
  bool BuildPool();
  // One untimed pass over the hot set: fills the plan cache.
  void WarmPlanCache();
  // Runs the readers for `seconds`. Traced readers also drive each read
  // through the layer entry points one call at a time.
  ServedWindow Window(double seconds, bool traced);
  // One Server::Mutate call: a non-joining row, then ANALYZE.
  Mutation Mutate(SpanLog* log);
  // kSegments reader windows of `seconds` in all, each followed by one
  // mutation: every read and mutation in `all`, the end-to-end figures in
  // `reads`. With a gauge, a reading before each segment and after the last.
  void SegmentedWindow(double seconds, bool traced, SpeedGauge* gauge,
                       ServedWindow* all, WindowResult* reads);
  // The server's figures of an untraced window, bracketed by `before` and
  // `after`: timestamps and counters only, which cost the readers nothing.
  void ReportServer(const ServedWindow& untraced,
                    const decorr::ServerStats& before,
                    const decorr::ServerStats& after);
  void ReportLayers(const ServedWindow& untraced, const ServedWindow& traced);

  const Args& args_;
  Report* report_;
  Tracer tracer_;
  std::unique_ptr<decorr::Server> server_;
  std::vector<std::shared_ptr<decorr::Session>> sessions_;
  // An unmutated copy of the served data: traced reads call the front end
  // and executor on it directly, outside the server's locks.
  std::unique_ptr<Database> shadow_;
  std::vector<PoolQuery> hot_;
  std::vector<PoolQuery> cold_;
  std::vector<double> starts_s_;  // every timed server start
  SpeedGauge setup_gauge_{1};     // readings around the starts
  Rng writer_rng_;
  int64_t next_row_id_ = 100000;
  int64_t round_ = 0;  // keeps fresh texts fresh across windows
};

// The shadow copy and the query pool come first (untimed), then the first
// timed server starts.
bool ServedRun::Setup() {
  shadow_ = std::make_unique<Database>();
  Status st = BuildDatabase(args_.seed, shadow_.get());
  if (!st.ok()) {
    report_->Fail("BuildDatabase: " + st.ToString());
    return false;
  }
  if (!BuildPool()) return false;

  for (int r = 0; r < (args_.smoke ? 3 : kStartsBefore); ++r) {
    if (!StartServer()) return false;
  }
  report_->Meta("clients", kReaders);
  report_->Meta("writers", 1);
  report_->Meta("dop", 1);
  report_->Meta("segments", args_.smoke ? 1 : kSegments);
  report_->Meta("hot_queries", kHotQueries);
  report_->Meta("cold_queries", kColdQueries);
  return true;
}

bool ServedRun::StartServer() {
  sessions_.clear();
  server_.reset();
  setup_gauge_.Read();
  const int64_t t0 = NowNanos();
  Database db;
  const Status st = BuildDatabase(args_.seed, &db);
  if (!st.ok()) {
    report_->Fail("BuildDatabase: " + st.ToString());
    return false;
  }
  server_ = std::make_unique<decorr::Server>(decorr::ServerOptions{},
                                             db.shared_catalog());
  for (int i = 0; i < kReaders; ++i) {
    sessions_.push_back(server_->Connect(StrFormat("reader-%d", i)));
  }
  WarmPlanCache();
  starts_s_.push_back((NowNanos() - t0) / 1e9);
  setup_gauge_.Read();
  return true;
}

void ServedRun::WarmPlanCache() {
  for (const PoolQuery& q : hot_) {
    (void)sessions_[0]->Execute(Instantiate(q.pattern, "t"), ReadOptions());
  }
}

// Generates the hot and cold query patterns with their NI answers and kAuto
// picks, untimed. Both sets are stratified -- the same number of queries of
// every outermost shape and nesting depth -- so that a seed changes which
// queries run but hardly how costly the set is. A pattern any step rejects
// is replaced by another of its stratum, so no measured query fails by
// construction; the number replaced is reported.
bool ServedRun::BuildPool() {
  QueryGen gen(args_.seed * 40503 + 5);
  int rejected = 0;
  auto fill = [&](int per_stratum, std::vector<PoolQuery>* out) {
    for (int depth = 1; depth <= QueryGen::kMaxDepth; ++depth) {
      for (int shape = 0; shape < QueryGen::kShapes; ++shape) {
        for (int n = 0; n < per_stratum;) {
          if (rejected > 1000) return false;
          PoolQuery q;
          q.pattern = gen.Next(shape, depth);
          const std::string sql = Instantiate(q.pattern, "t");
          QueryOptions ni;
          ni.fallback = false;
          auto reference = shadow_->Execute(sql, ni);
          auto served = shadow_->Execute(sql, ReadOptions());
          ResourceGuard guard;
          auto prepared = shadow_->Prepare(sql, ReadOptions(), &guard);
          if (!reference.ok() || !served.ok() || !prepared.ok() ||
              Canon(served->rows) != Canon(reference->rows)) {
            ++rejected;
            continue;
          }
          q.reference = Canon(reference->rows);
          q.auto_pick = prepared->effective;
          out->push_back(std::move(q));
          ++n;
        }
      }
    }
    return true;
  };
  const int strata = QueryGen::kShapes * QueryGen::kMaxDepth;
  if (!fill(kHotQueries / strata, &hot_) ||
      !fill(kColdQueries / strata, &cold_)) {
    report_->Fail("query generator: too many rejected patterns");
    return false;
  }
  report_->Meta("rejected_patterns", rejected);
  return true;
}

ServedWindow ServedRun::Window(double seconds, bool traced) {
  ++round_;
  ServedWindow out;
  out.reads.assign(kReaders, {});
  const int64_t start = NowNanos();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SpanLog* log = traced ? tracer_.NewLog() : nullptr;
      Rng rng(args_.seed * 1000003 + static_cast<uint64_t>(round_) * 101 +
              static_cast<uint64_t>(r));
      std::vector<Read>& reads = out.reads[r];
      decorr::Session& session = *sessions_[r];
      for (int64_t i = 0; NowNanos() < deadline; ++i) {
        Read read;
        read.hot = i % kFreshEvery != 0;
        const std::vector<PoolQuery>& set = read.hot ? hot_ : cold_;
        const PoolQuery& q =
            set[static_cast<size_t>(rng.Uniform(0, set.size() - 1))];
        const std::string sql = Instantiate(
            q.pattern, read.hot ? std::string("t")
                                : StrFormat("f%lld_%d_%lld_t",
                                            (long long)round_, r,
                                            (long long)i));
        int64_t req = -1;
        bool decomposed_ok = true;
        if (log != nullptr) {
          // The same read, layer by layer, on the shadow copy.
          req = log->Begin("request", -1, -1, read.hot ? "hot" : "fresh");
          const auto rows =
              TraceQuery(shadow_.get(), sql, ReadOptions(), req, log);
          decomposed_ok = rows.has_value() && Canon(*rows) == q.reference;
        }
        const int64_t span =
            log ? log->Begin("server.Session.Execute", req, req) : -1;
        read.start_ns = NowNanos();
        auto result = session.Execute(sql, ReadOptions());
        read.end_ns = NowNanos();
        if (log != nullptr) {
          const bool hit = result.ok() && result->profile.plan_cache_hit;
          log->End(span, {{"plan_cache_hit", hit}});
          log->End(req);
        }
        read.ok = decomposed_ok && result.ok() &&
                  Canon(result->rows) == q.reference;
        reads.push_back(read);
      }
    });
  }

  // Bin boundaries, one a second; a last partial second is left out.
  out.marks.push_back({start, cpu0});
  for (int64_t b = 1; start + b * 1000000000 <= deadline; ++b) {
    const int64_t at = start + b * 1000000000;
    std::this_thread::sleep_for(std::chrono::nanoseconds(at - NowNanos()));
    out.marks.push_back({NowNanos(), ProcessCpuSeconds()});
  }
  for (std::thread& t : readers) t.join();
  out.seconds = (NowNanos() - start) / 1e9;
  out.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return out;
}

Mutation ServedRun::Mutate(SpanLog* log) {
  Mutation m;
  const int64_t id = next_row_id_++;
  const decorr::Row row = {Value::Int64(id), Value::Int64(kWriterBuilding),
                           Value::Int64(writer_rng_.Uniform(0, 60))};
  const char* table = id % 2 == 1 ? "emp" : "proj";
  const int64_t span = log ? log->Begin("server.Mutate", -1, -1, "mutate") : -1;
  m.start_ns = NowNanos();
  const Status st = server_->Mutate([&](Database& db) -> Status {
    DECORR_RETURN_IF_ERROR(db.Insert(table, {row}));
    const int64_t a = log ? log->Begin("catalog.AnalyzeAll", span, span) : -1;
    const int64_t t0 = NowNanos();
    const Status analyzed = db.AnalyzeAll();
    m.analyze_ns = NowNanos() - t0;
    if (log != nullptr) log->End(a);
    return analyzed;
  });
  m.end_ns = NowNanos();
  if (log != nullptr) log->End(span);
  m.ok = st.ok();
  return m;
}

void ServedRun::SegmentedWindow(double seconds, bool traced,
                                SpeedGauge* gauge, ServedWindow* all,
                                WindowResult* reads) {
  const int segments = args_.smoke ? 1 : kSegments;
  SpanLog* log = traced ? tracer_.NewLog() : nullptr;
  for (int i = 0; i < segments; ++i) {
    if (gauge != nullptr) gauge->Read();
    const ServedWindow segment = Window(seconds / segments, traced);
    const WindowResult part = segment.Reads();
    if (i == 0) {
      *all = segment;
      *reads = part;
    } else {
      all->Append(segment);
      reads->Append(part);
    }
    const Mutation m = Mutate(log);
    all->mutations.push_back(m);
    ++reads->attempted;
    if (!m.ok) ++reads->failed;
  }
  if (gauge != nullptr) gauge->Read();
}

void ServedRun::ReportServer(const ServedWindow& untraced,
                             const decorr::ServerStats& before,
                             const decorr::ServerStats& after) {
  std::vector<double> hot_us, fresh_us, analyze_ms;
  for (const std::vector<Read>& reads : untraced.reads) {
    for (const Read& read : reads) {
      if (!read.ok) continue;
      (read.hot ? hot_us : fresh_us)
          .push_back((read.end_ns - read.start_ns) / 1e3);
    }
  }
  for (const Mutation& m : untraced.mutations) {
    analyze_ms.push_back(m.analyze_ns / 1e6);
  }
  const decorr::PlanCacheCounters& c0 = before.plan_cache;
  const decorr::PlanCacheCounters& c1 = after.plan_cache;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double misses = static_cast<double>(c1.misses - c0.misses);
  const double admitted = static_cast<double>(after.admitted - before.admitted);
  report_->Metric("catalog.analyze_ms", Median(analyze_ms), "ms");
  report_->Metric("server.hit_us", Median(hot_us), "us");
  report_->Metric("server.miss_us", Median(fresh_us), "us");
  report_->Metric("server.plan_cache_hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report_->Metric("server.plan_cache_invalidations",
                  static_cast<double>(c1.invalidations - c0.invalidations),
                  "count");
  report_->Metric("server.plan_cache_evictions",
                  static_cast<double>(c1.evictions - c0.evictions), "count");
  report_->Metric("server.queued_frac",
                  admitted > 0 ? (after.queued - before.queued) / admitted
                               : 0.0,
                  "ratio");
  report_->Metric("server.mutate_p50_ms", untraced.MutateP50Ms(), "ms");
}

// The layer figures come from the traced window: each read's layer calls on
// the shadow copy, weighted by whether its served call hit the plan cache.
void ServedRun::ReportLayers(const ServedWindow& untraced,
                             const ServedWindow& traced) {
  const std::vector<Span> spans = tracer_.Collect();
  const std::vector<RequestTree> requests = GroupRequests(spans);
  ReportFrontEnd(requests, report_);

  std::vector<ExecSample> samples;
  for (const RequestTree& r : requests) {
    const Span* exec = r.Child("exec.RunPrepared.execute");
    if (exec == nullptr) continue;  // a Mutate, or a failed read
    samples.push_back(
        {1.0, exec,
         std::max(0.0, exec->micros() -
                           r.ChildMicros("planner.RunPrepared.plan")) /
             1e3});
  }
  ReportExecWork(samples, report_);

  std::map<std::string, double> picks;
  for (const std::vector<PoolQuery>* set : {&hot_, &cold_}) {
    for (const PoolQuery& q : *set) picks[StrategySlug(q.auto_pick)] += 1;
  }
  ReportAutoPicks(picks, report_);
  ReportTraceOverhead(untraced.Reads().Qps(), traced.Reads().Qps(),
                      spans.size(), report_);

  if (!args_.spans_path.empty() &&
      !WriteSpanFile(args_.spans_path, args_, spans)) {
    report_->Fail("cannot write " + args_.spans_path);
  }
}

bool ServedRun::Run() {
  if (!Setup()) return false;
  if (!args_.trace) {
    // Readers keep kReaders cores busy.
    SpeedGauge window_gauge(kReaders);
    ServedWindow window;
    WindowResult reads;
    SegmentedWindow(args_.seconds, /*traced=*/false, &window_gauge, &window,
                    &reads);
    report_->Count(reads.attempted, reads.failed);
    for (int r = 0; r < (args_.smoke ? 0 : kStartsAfter); ++r) {
      if (!StartServer()) return false;
    }
    report_->Meta("setup_reps", static_cast<double>(starts_s_.size()));
    report_->Metric("speed.readings", window_gauge.readings(), "count");
    ReportEndToEnd(reads, window_gauge.Scale(), Median(starts_s_),
                   setup_gauge_.Scale(), report_);
    // Not declared end-to-end metrics (the TPC-D workloads have no
    // writer); printed with the rest.
    report_->Metric("mutate_p50_ms", window.MutateP50Ms(), "ms");
    report_->Metric("mutations", static_cast<double>(window.mutations.size()),
                    "count");
    for (const bool hot : {true, false}) {
      std::vector<double> ms;
      for (const std::vector<Read>& reads : window.reads) {
        for (const Read& read : reads) {
          if (read.ok && read.hot == hot) {
            ms.push_back((read.end_ns - read.start_ns) / 1e6);
          }
        }
      }
      report_->Metric(hot ? "class_p50_ms.hot" : "class_p50_ms.fresh",
                      Median(ms), "ms");
    }
    return true;
  }
  // Traced run: the first half of the window runs untraced. It gives the
  // server's figures, under the load the untraced run sees, and the
  // untraced qps the traced one is set against.
  ServedWindow untraced, traced;
  WindowResult untraced_reads, traced_reads;
  const decorr::ServerStats before = server_->stats();
  SegmentedWindow(args_.seconds / 2, /*traced=*/false, nullptr, &untraced,
                  &untraced_reads);
  const decorr::ServerStats after = server_->stats();
  SegmentedWindow(args_.seconds / 2, /*traced=*/true, nullptr, &traced,
                  &traced_reads);
  report_->Count(untraced_reads.attempted, untraced_reads.failed);
  report_->Count(traced_reads.attempted, traced_reads.failed);
  report_->Meta("setup_reps", static_cast<double>(starts_s_.size()));
  ReportServer(untraced, before, after);
  ReportLayers(untraced, traced);
  return true;
}

}  // namespace

bool RunServedSmall(const Args& args, Report* report) {
  ServedRun run(args, report);
  return run.Run();
}

}  // namespace perfbench
