#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "decorr/binder/binder.h"
#include "decorr/common/json.h"
#include "decorr/parser/parser.h"
#include "decorr/planner/cost.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(p / 100.0 * n);
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::vector<std::string> Canon(const std::vector<decorr::Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const decorr::Row& row : rows) out.push_back(decorr::RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

const char* StrategySlug(decorr::Strategy strategy) {
  using decorr::Strategy;
  switch (strategy) {
    case Strategy::kNestedIteration: return "ni";
    case Strategy::kNestedIterationCached: return "ni_cached";
    case Strategy::kKim: return "kim";
    case Strategy::kDayal: return "dayal";
    case Strategy::kGanskiWong: return "ganski";
    case Strategy::kMagic: return "mag";
    case Strategy::kOptMagic: return "optmag";
    case Strategy::kAuto: return "auto";
  }
  return "unknown";
}

// ---- Tracing ----

int64_t Span::Counter(const char* counter_name) const {
  for (const auto& [name, value] : counters) {
    if (std::string_view(name) == counter_name) return value;
  }
  return 0;
}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t request,
                       std::string label) {
  Span span;
  span.name = name;
  span.label = std::move(label);
  span.id = (static_cast<int64_t>(thread_) << kThreadShift) |
            static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.request = request < 0 ? span.id : request;
  span.thread = thread_;
  span.start_ns = NowNanos();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::End(int64_t id,
                  std::vector<std::pair<const char*, int64_t>> counters) {
  Span& span = spans_[LocalIndex(id)];
  span.end_ns = NowNanos();
  span.counters = std::move(counters);
}

SpanLog* Tracer::NewLog() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(static_cast<int>(logs_.size())));
  return logs_.back().get();
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

const Span* RequestTree::Child(const char* name) const {
  for (const Span* child : children) {
    if (std::string_view(child->name) == name) return child;
  }
  return nullptr;
}

double RequestTree::ChildMicros(const char* name) const {
  const Span* child = Child(name);
  return child == nullptr ? 0.0 : child->micros();
}

std::vector<RequestTree> GroupRequests(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> tree_of;  // root span id -> index
  std::vector<RequestTree> trees;
  for (const Span& span : spans) {
    if (span.parent < 0) {
      tree_of[span.id] = trees.size();
      trees.push_back(RequestTree{&span, {}});
    }
  }
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    auto it = tree_of.find(span.parent);
    if (it != tree_of.end()) trees[it->second].children.push_back(&span);
  }
  return trees;
}

bool WriteSpanFile(const std::string& path, const Args& args,
                   const std::vector<Span>& spans) {
  // Self time: a span's duration minus the part its children cover. A
  // layer's children never overlap each other (calls are sequential within
  // a thread), so the covered part is the sum of their durations.
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, std::vector<double>> self_us;
  for (const Span& span : spans) {
    const int64_t self = span.end_ns - span.start_ns - child_ns[span.id];
    self_us[span.name].push_back(static_cast<double>(self) / 1e3);
  }

  decorr::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(args.workload);
  w.Key("seed").Int(static_cast<int64_t>(args.seed));
  w.Key("self_time").BeginObject();
  for (const auto& [name, samples] : self_us) {
    double total = 0.0;
    for (double s : samples) total += s;
    w.Key(name).BeginObject();
    w.Key("spans").Int(static_cast<int64_t>(samples.size()));
    w.Key("total_ms").Raw(std::to_string(total / 1e3));
    w.Key("p50_us").Raw(std::to_string(Median(samples)));
    w.EndObject();
  }
  w.EndObject();
  w.Key("spans").BeginArray();
  for (const Span& span : spans) {
    w.BeginObject();
    w.Key("name").String(span.name);
    if (!span.label.empty()) w.Key("label").String(span.label);
    w.Key("id").Int(span.id);
    w.Key("parent").Int(span.parent);
    w.Key("request").Int(span.request);
    w.Key("thread").Int(span.thread);
    w.Key("start_ns").Int(span.start_ns);
    w.Key("end_ns").Int(span.end_ns);
    if (!span.counters.empty()) {
      w.Key("counters").BeginObject();
      for (const auto& [name, value] : span.counters) w.Key(name).Int(value);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = std::move(w).str();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

// ---- Output ----

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Meta(const std::string& key, const std::string& value) {
  std::string json(1, '"');
  json += decorr::JsonEscape(value);
  json += '"';
  meta_[key] = std::move(json);
}

void Report::Meta(const std::string& key, double value) {
  meta_[key] = Number(value);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (const auto& [existing, unused] : metrics_) {
    if (existing == name) {
      Fail("metric reported twice: " + name);
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& why) { errors_.push_back(why); }

std::string Report::ToJson() const {
  decorr::JsonWriter w;
  w.BeginObject();
  w.Key("meta").BeginObject();
  for (const auto& [key, value] : meta_) w.Key(key).Raw(value);
  w.EndObject();
  w.Key("correct").Bool(errors_.empty() && failed_ == 0 && attempted_ > 0);
  w.Key("attempted").Int(attempted_);
  w.Key("failed").Int(failed_);
  w.Key("errors").BeginArray();
  for (const std::string& e : errors_) w.String(e);
  w.EndArray();
  w.Key("metrics").BeginObject();
  for (const auto& [name, value_unit] : metrics_) {
    w.Key(name).BeginObject();
    w.Key("value").Raw(Number(value_unit.first));
    w.Key("unit").String(value_unit.second);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).str();
}

void WindowResult::Append(const WindowResult& later) {
  latencies_ms.insert(latencies_ms.end(), later.latencies_ms.begin(),
                      later.latencies_ms.end());
  bins.insert(bins.end(), later.bins.begin(), later.bins.end());
  attempted += later.attempted;
  failed += later.failed;
  seconds += later.seconds;
  cpu_seconds += later.cpu_seconds;
}

void ReportEndToEnd(const WindowResult& window, double window_scale,
                    double setup_s, double setup_scale, Report* report) {
  std::vector<double> qps, cpu_ms, geomean_ms;
  for (const WindowBin& bin : window.bins) {
    if (bin.latencies_ms.empty() || bin.seconds <= 0) continue;
    const double n = static_cast<double>(bin.latencies_ms.size());
    double log_sum = 0.0;
    for (const double ms : bin.latencies_ms) log_sum += std::log(ms);
    qps.push_back(n / bin.seconds);
    cpu_ms.push_back(bin.cpu_seconds * 1e3 / n);
    geomean_ms.push_back(std::exp(log_sum / n));
  }
  const double completed = static_cast<double>(window.latencies_ms.size());
  const double beyond_p95 = completed - std::ceil(0.95 * completed);
  if (beyond_p95 < 10) {
    report->Fail("only " + std::to_string(static_cast<int64_t>(beyond_p95)) +
                 " latency samples beyond the p95 rank; 10 are needed");
  }
  // Each figure at reference speed (declared), then as measured (`_raw`).
  for (const bool raw : {false, true}) {
    const std::string suffix = raw ? "_raw" : "";
    const double time_scale = raw ? 1.0 : window_scale;
    report->Metric("setup_s" + suffix, setup_s * (raw ? 1.0 : setup_scale),
                   "s");
    report->Metric("qps" + suffix, Median(qps) / time_scale, "1/s");
    // Whole-window percentiles: a TPC-D deck holds too few queries for a
    // steady percentile of its own (BENCH.md, "End-to-end metrics").
    report->Metric("latency_p50_ms" + suffix,
                   Percentile(window.latencies_ms, 50) * time_scale, "ms");
    report->Metric("latency_p95_ms" + suffix,
                   Percentile(window.latencies_ms, 95) * time_scale, "ms");
    report->Metric("latency_geomean_ms" + suffix,
                   Median(geomean_ms) * time_scale, "ms");
    report->Metric("cpu_ms_per_query" + suffix, Median(cpu_ms) * time_scale,
                   "ms");
    if (!raw) report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  }
  // Not declared in BENCHMARK.json (a metric that is 0 cannot carry a
  // relative bound; `failed` / `attempted` carry it), printed with the rest.
  const double attempted = static_cast<double>(window.attempted);
  report->Metric("error_rate",
                 attempted > 0 ? static_cast<double>(window.failed) / attempted
                               : 0.0,
                 "ratio");
  report->Metric("speed.window_scale", window_scale, "ratio");
  report->Metric("speed.setup_scale", setup_scale, "ratio");
  report->Metric("window_bins", static_cast<double>(qps.size()), "count");
  report->Metric("latency_samples", completed, "count");
  report->Metric("latency_samples_beyond_p95", beyond_p95, "count");
}

std::optional<std::vector<decorr::Row>> TraceQuery(
    decorr::Database* db, const std::string& sql,
    const decorr::QueryOptions& options, int64_t req, SpanLog* log) {
  int64_t s = log->Begin("parser.ParseQuery", req, req);
  auto ast = decorr::ParseQuery(sql);
  log->End(s);
  if (!ast.ok()) return std::nullopt;

  s = log->Begin("binder.Bind", req, req);
  auto bound = decorr::Bind(**ast, db->catalog());
  log->End(s);
  if (!bound.ok()) return std::nullopt;

  if (options.strategy == decorr::Strategy::kAuto) {
    s = log->Begin("planner.ChooseStrategy", req, req);
    auto choice = decorr::ChooseStrategy(**ast, db->catalog(), options.decorr,
                                         options.prune_dedup,
                                         options.subquery_cache_bytes);
    log->End(s);
    if (!choice.ok()) return std::nullopt;
  }

  decorr::ResourceGuard prepare_guard;
  s = log->Begin("runtime.Prepare", req, req);
  auto prepared = db->Prepare(sql, options, &prepare_guard,
                              /*refresh_stale_stats=*/false);
  if (!prepared.ok()) {
    log->End(s);
    return std::nullopt;
  }
  log->End(s, {{"parse_nanos", prepared->parse_nanos},
               {"bind_nanos", prepared->bind_nanos}});

  decorr::ResourceGuard plan_guard;
  s = log->Begin("planner.RunPrepared.plan", req, req);
  auto planned = db->RunPrepared(prepared->Clone(), options,
                                 /*execute=*/false, &plan_guard,
                                 /*plan_cache_hit=*/false);
  log->End(s);
  if (!planned.ok()) return std::nullopt;

  const decorr::Strategy effective = prepared->effective;
  decorr::ResourceGuard guard;
  s = log->Begin("exec.RunPrepared.execute", req, req);
  auto ran = db->RunPrepared(prepared.MoveValue(), options, /*execute=*/true,
                             &guard, /*plan_cache_hit=*/false);
  if (!ran.ok()) {
    log->End(s);
    return std::nullopt;
  }
  const decorr::ExecStats& st = ran->stats;
  log->End(s, {{"rows_scanned", st.rows_scanned},
               {"index_lookups", st.index_lookups},
               {"subquery_invocations", st.subquery_invocations},
               {"subquery_cache_hits", st.subquery_cache_hits},
               {"subquery_cache_misses", st.subquery_cache_misses},
               {"rows_output", st.rows_output},
               {"rows_materialized", guard.rows_materialized()},
               {"peak_memory_bytes", guard.memory().peak()},
               {"effective_strategy", static_cast<int64_t>(effective)}});
  return std::move(ran->rows);
}

void ReportFrontEnd(const std::vector<RequestTree>& requests, Report* report) {
  std::vector<double> parse, bind, choose, prepare, rewrite_self, plan;
  double frontend_us = 0.0;
  double total_us = 0.0;
  for (const RequestTree& r : requests) {
    const Span* exec = r.Child("exec.RunPrepared.execute");
    if (exec == nullptr) continue;
    const double pl = r.ChildMicros("planner.RunPrepared.plan");
    plan.push_back(pl);
    const Span* served = r.Child("server.Session.Execute");
    if (served != nullptr && served->Counter("plan_cache_hit") != 0) {
      // Execute includes its own planning.
      frontend_us += pl;
      total_us += exec->micros();
      continue;
    }
    const double c = r.ChildMicros("planner.ChooseStrategy");
    const Span* prepare_span = r.Child("runtime.Prepare");
    const double pr = prepare_span->micros();
    parse.push_back(r.ChildMicros("parser.ParseQuery"));
    bind.push_back(r.ChildMicros("binder.Bind"));
    if (r.Child("planner.ChooseStrategy") != nullptr) choose.push_back(c);
    prepare.push_back(pr);
    // Prepare's own parse and bind clocks, not the separate calls above:
    // subtracting those would charge their cold-cache cost to the rewrite.
    const double inner_parse_bind_us =
        (prepare_span->Counter("parse_nanos") +
         prepare_span->Counter("bind_nanos")) / 1e3;
    rewrite_self.push_back(std::max(0.0, pr - inner_parse_bind_us - c));
    // Execute includes its own planning, so prepare + execute is the whole
    // query and prepare + plan its front end.
    frontend_us += pr + pl;
    total_us += pr + exec->micros();
  }
  report->Metric("parser.parse_us", Median(parse), "us");
  report->Metric("binder.bind_us", Median(bind), "us");
  report->Metric("planner.choose_strategy_us", Median(choose), "us");
  report->Metric("rewrite.self_us", Median(rewrite_self), "us");
  report->Metric("runtime.prepare_us", Median(prepare), "us");
  report->Metric("planner.plan_us", Median(plan), "us");
  report->Metric("frontend.share",
                 total_us > 0 ? frontend_us / total_us : 0.0, "ratio");
}

void ReportExecWork(const std::vector<ExecSample>& samples, Report* report) {
  double weight = 0, exec_ms = 0, scanned = 0, lookups = 0, invocations = 0,
         materialized = 0, output = 0, hits = 0, probes = 0;
  double ni_exec_ns = 0, ni_invocations = 0;
  int64_t peak_memory = 0;
  for (const ExecSample& s : samples) {
    const Span& e = *s.exec;
    const double w = s.weight;
    weight += w;
    exec_ms += w * s.exec_ms;
    scanned += w * e.Counter("rows_scanned");
    lookups += w * e.Counter("index_lookups");
    invocations += w * e.Counter("subquery_invocations");
    materialized += w * e.Counter("rows_materialized");
    output += w * e.Counter("rows_output");
    hits += w * e.Counter("subquery_cache_hits");
    probes += w * (e.Counter("subquery_cache_hits") +
                   e.Counter("subquery_cache_misses"));
    peak_memory = std::max(peak_memory, e.Counter("peak_memory_bytes"));
    const auto effective =
        static_cast<decorr::Strategy>(e.Counter("effective_strategy"));
    if ((effective == decorr::Strategy::kNestedIteration ||
         effective == decorr::Strategy::kNestedIterationCached) &&
        e.Counter("subquery_invocations") > 0) {
      ni_exec_ns += w * s.exec_ms * 1e6;
      ni_invocations += w * e.Counter("subquery_invocations");
    }
  }
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report->Metric("exec.ms_per_query", per(exec_ms, weight), "ms");
  report->Metric("exec.rows_scanned_per_query", per(scanned, weight), "count");
  report->Metric("exec.index_lookups_per_query", per(lookups, weight),
                 "count");
  report->Metric("exec.subquery_invocations_per_query",
                 per(invocations, weight), "count");
  report->Metric("exec.rows_materialized_per_query",
                 per(materialized, weight), "count");
  report->Metric("exec.rows_examined_per_row_returned",
                 per(scanned + lookups, output), "ratio");
  report->Metric("exec.subquery_cache_hit_ratio", per(hits, probes), "ratio");
  report->Metric("exec.subquery_cache_probes_per_query", per(probes, weight),
                 "count");
  report->Metric("exec.ns_per_invocation", per(ni_exec_ns, ni_invocations),
                 "ns");
  report->Metric("exec.peak_memory_bytes", static_cast<double>(peak_memory),
                 "bytes");
}

void ReportAutoPicks(std::map<std::string, double> picks, Report* report) {
  using decorr::Strategy;
  for (Strategy s :
       {Strategy::kNestedIteration, Strategy::kNestedIterationCached,
        Strategy::kKim, Strategy::kDayal, Strategy::kGanskiWong,
        Strategy::kMagic, Strategy::kOptMagic}) {
    report->Metric(std::string("planner.auto_pick.") + StrategySlug(s),
                   picks[StrategySlug(s)], "count");
  }
}

void ReportTraceOverhead(double untraced_qps, double traced_qps, size_t spans,
                         Report* report) {
  report->Metric("trace.qps_untraced", untraced_qps, "1/s");
  report->Metric("trace.qps_traced", traced_qps, "1/s");
  report->Metric("trace.overhead",
                 untraced_qps > 0 ? 1.0 - traced_qps / untraced_qps : 0.0,
                 "ratio");
  report->Metric("trace.spans", static_cast<double>(spans), "count");
}

}  // namespace perfbench
