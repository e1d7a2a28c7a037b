// Shared pieces of the benchmark: command-line arguments, sample statistics,
// process resource readings, the row-multiset check, the span recorder of
// traced runs, and the report every workload fills in.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "decorr/common/value.h"
#include "decorr/rewrite/strategy.h"
#include "decorr/runtime/database.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny data and short windows: checks that every metric is emitted,
  // not how fast anything is.
  bool smoke = false;
  std::string spans_path;  // traced runs write their spans here
};

int64_t NowNanos();

// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();
// Peak resident set of the process so far, MiB.
double PeakRssMb();
// Hardware threads available to the process.
int HardwareThreads();

// The sorted per-row renderings: two results are the same multiset of rows
// exactly when these are equal.
std::vector<std::string> Canon(const std::vector<decorr::Row>& rows);

// Short metric-name form of a strategy: ni, ni_cached, kim, dayal, ganski,
// mag, optmag, auto.
const char* StrategySlug(decorr::Strategy strategy);

// ---- Tracing ----

// One timed call into a layer. `request` groups the spans of one query;
// `parent` is the span that made the call (-1 for a request's root).
struct Span {
  const char* name = "";
  std::string label;  // query class of a request span, else empty
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
  int thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Counter deltas taken at this span's boundaries (ExecStats and the like).
  std::vector<std::pair<const char*, int64_t>> counters;

  double micros() const { return (end_ns - start_ns) / 1e3; }
  int64_t Counter(const char* counter_name) const;
};

// The spans of one thread. Appends need no lock: each worker thread owns
// one log, and logs are read only after their threads have joined.
class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) {}

  // Opens a span and returns its id.
  int64_t Begin(const char* name, int64_t parent, int64_t request,
                std::string label = "");
  // Closes span `id` (opened by this log), attaching `counters`.
  void End(int64_t id,
           std::vector<std::pair<const char*, int64_t>> counters = {});
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr int kThreadShift = 40;
  size_t LocalIndex(int64_t id) const {
    return static_cast<size_t>(id & ((int64_t{1} << kThreadShift) - 1));
  }

  int thread_;
  std::vector<Span> spans_;
};

// Owns every thread's log; no-op when tracing is off.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  // A fresh log for the calling thread (null when tracing is off).
  SpanLog* NewLog();
  // All spans, ordered by start time.
  std::vector<Span> Collect() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;  // guarded by mu_
};

// Spans grouped by request: for each request span, its children's spans.
struct RequestTree {
  const Span* root = nullptr;
  std::vector<const Span*> children;
  // Duration (us) of the first child named `name`; 0 when absent.
  double ChildMicros(const char* name) const;
  const Span* Child(const char* name) const;
};
std::vector<RequestTree> GroupRequests(const std::vector<Span>& spans);

// Writes the spans and the per-name self times (a span's duration minus the
// time its children cover) to `path` as JSON. Returns false on I/O failure.
bool WriteSpanFile(const std::string& path, const Args& args,
                   const std::vector<Span>& spans);

// Drives one query through the layer entry points one call at a time, each
// call a child span of request `req`: ParseQuery, Bind, ChooseStrategy
// (kAuto only), Database::Prepare, RunPrepared without and then with
// execution. The execute span carries the call's ExecStats, the guard's
// materialization and memory figures, and the strategy the query ran
// under. Returns the rows, or nothing when a step failed. Reads `db` only:
// its statistics must be fresh.
std::optional<std::vector<decorr::Row>> TraceQuery(
    decorr::Database* db, const std::string& sql,
    const decorr::QueryOptions& options, int64_t req, SpanLog* log);

// ---- Output ----

// Everything one run reports. The runner prints the metrics the benchmark
// declares and keeps the rest (meta, extra figures) in the run's report.
class Report {
 public:
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  void Metric(const std::string& name, double value, const std::string& unit);
  // Measured queries: `failed` of them errored or returned rows other than
  // the reference.
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Fail(const std::string& why);  // a broken run: nothing is correct

  std::string ToJson() const;

 private:
  std::map<std::string, std::string> meta_;  // key -> JSON value text
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// A slice of a measured window: a whole deck of a TPC-D mix, or one second
// of served_small. Throughput, CPU per query and the geometric mean are the
// medians of their per-bin values, so a burst of load from outside the
// benchmark moves a few bins rather than the result. The percentiles are
// taken over the whole window.
struct WindowBin {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> latencies_ms;  // correct queries completed in the bin
};

// Fewest latency samples a window holds: a window that has run its seconds
// goes on until it has this many, so that at least 12 lie beyond the p95
// rank. A window with fewer than 10 beyond it fails the run.
constexpr int64_t kMinLatencySamples = 240;

// Shared end-to-end figures of a closed-loop window.
struct WindowResult {
  std::vector<double> latencies_ms;  // correct queries only
  std::vector<WindowBin> bins;
  int64_t attempted = 0;
  int64_t failed = 0;
  double seconds = 0.0;      // measured window length
  double cpu_seconds = 0.0;  // process CPU over the window

  double Qps() const {
    return seconds > 0 ? static_cast<double>(latencies_ms.size()) / seconds
                       : 0.0;
  }
  // Adds a later window of the same run.
  void Append(const WindowResult& later);
};
// The end-to-end metrics at reference speed: the window's times multiplied
// by `window_scale`, the set-up time `setup_s` by `setup_scale` (each a
// SpeedGauge::Scale). The same figures as measured carry a `_raw` suffix.
void ReportEndToEnd(const WindowResult& window, double window_scale,
                    double setup_s, double setup_scale, Report* report);

// Front-end layer medians from traced requests that reached the executor:
// parse, bind, kAuto choice, Prepare, Prepare's own rewrite time (minus
// parse, bind and choice), plan, and the front end's share of the time. A
// request whose "server.Session.Execute" span hit the plan cache skipped
// parse, bind, choice and Prepare when served: it adds only its plan and
// execute time, and no Prepare-side medians.
void ReportFrontEnd(const std::vector<RequestTree>& requests, Report* report);

// One executed query (or query class) for the executor's work counts.
struct ExecSample {
  double weight = 1.0;
  const Span* exec = nullptr;  // its "exec.RunPrepared.execute" span
  double exec_ms = 0.0;        // execute minus plan
};
// Per-query work counts, the memo-cache hit ratio, NI-family time per inner
// invocation and peak query memory, weighted by `weight`.
void ReportExecWork(const std::vector<ExecSample>& samples, Report* report);

// How many kAuto queries resolved to each concrete strategy, keyed by
// StrategySlug; every strategy kAuto can pick is reported.
void ReportAutoPicks(std::map<std::string, double> picks, Report* report);

// The tracing overhead: traced against untraced qps from the same process.
void ReportTraceOverhead(double untraced_qps, double traced_qps,
                         size_t spans, Report* report);


// Workload entry points; each fills `report` and returns false only when
// the run could not be carried out at all.
bool RunTpcdIndexed(const Args& args, Report* report);
bool RunTpcdNoindex(const Args& args, Report* report);
bool RunServedSmall(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
