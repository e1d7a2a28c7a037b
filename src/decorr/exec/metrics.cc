#include "decorr/exec/metrics.h"

#include <algorithm>

#include "decorr/common/json.h"
#include "decorr/common/string_util.h"
#include "decorr/exec/operator.h"

namespace decorr {

namespace {

double Ms(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

std::string FirstLine(const std::string& s) {
  const size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

MetricsNode Collect(const Operator& op, std::string role) {
  MetricsNode node;
  node.name = op.name();
  node.detail = FirstLine(op.ToString(0));
  node.role = std::move(role);

  const OperatorMetrics& m = op.metrics();
  node.rows_out = m.rows_out;
  node.keyfilter_rejected = m.keyfilter_rejected;
  node.open_calls = m.open_calls;
  node.next_calls = m.next_calls;
  node.open_nanos = m.open_nanos;
  node.next_nanos = m.next_nanos;
  node.close_nanos = m.close_nanos;
  node.total_nanos = m.TotalNanos();
  node.build_rows = m.build_rows;
  node.index_probes = m.index_probes;
  node.bytes_charged = m.bytes_charged;
  node.cache_hits = m.cache_hits;
  node.cache_misses = m.cache_misses;
  node.cache_evictions = m.cache_evictions;
  node.spill_partitions = m.spill_partitions;
  node.spill_passes = m.spill_passes;
  node.spill_bytes_written = m.spill_bytes_written;
  node.spill_bytes_read = m.spill_bytes_read;

  PlanIntrospection pi;
  op.Introspect(&pi);
  node.rows_in = m.rows_in_self;
  int64_t children_nanos = 0;
  for (const PlanIntrospection::Subplan& child : pi.children) {
    if (child.op == nullptr) continue;
    node.children.push_back(Collect(*child.op, child.role));
    node.rows_in += node.children.back().rows_out;
    children_nanos += node.children.back().total_nanos;
  }
  node.self_nanos = std::max<int64_t>(0, node.total_nanos - children_nanos);
  return node;
}

void Render(const MetricsNode& node, int indent, bool include_timing,
            std::string* out) {
  *out += Repeat("  ", indent);
  if (!node.role.empty()) {
    *out += node.role;
    *out += ": ";
  }
  *out += node.detail.empty() ? node.name : node.detail;
  *out += StrFormat(" (rows=%lld in=%lld", (long long)node.rows_out,
                    (long long)node.rows_in);
  // Only once a key filter rejected rows, so plans without one render
  // byte-identically (same contract as build=/probes=).
  if (node.keyfilter_rejected > 0) {
    *out += StrFormat(" keyfilter=%lld", (long long)node.keyfilter_rejected);
  }
  *out += StrFormat(" loops=%lld", (long long)node.open_calls);
  if (node.build_rows > 0) {
    *out += StrFormat(" build=%lld", (long long)node.build_rows);
  }
  if (node.index_probes > 0) {
    *out += StrFormat(" probes=%lld", (long long)node.index_probes);
  }
  // Cache counters only appear once caching actually ran, so uncached plans
  // render byte-identically to before (same contract as build=/probes=).
  if (node.cache_hits + node.cache_misses > 0) {
    *out += StrFormat(" hits=%lld misses=%lld", (long long)node.cache_hits,
                      (long long)node.cache_misses);
    if (node.cache_evictions > 0) {
      *out += StrFormat(" evict=%lld", (long long)node.cache_evictions);
    }
  }
  // Spill counters only appear once an operator actually spilled, keeping
  // in-memory plans (and the goldens) byte-identical.
  if (node.spill_partitions > 0) {
    *out += StrFormat(
        " spill_parts=%lld spill_passes=%lld spilled=%lldB read=%lldB",
        (long long)node.spill_partitions, (long long)node.spill_passes,
        (long long)node.spill_bytes_written,
        (long long)node.spill_bytes_read);
  }
  if (include_timing) {
    *out += StrFormat(" time=%.3fms self=%.3fms", Ms(node.total_nanos),
                      Ms(node.self_nanos));
    if (node.bytes_charged > 0) {
      *out += StrFormat(" bytes=%lld", (long long)node.bytes_charged);
    }
  }
  *out += ")\n";
  for (const MetricsNode& child : node.children) {
    Render(child, indent + 1, include_timing, out);
  }
}

void NodeJson(JsonWriter* w, const MetricsNode& node) {
  w->BeginObject();
  w->Key("op").String(node.name);
  w->Key("detail").String(node.detail);
  if (!node.role.empty()) w->Key("role").String(node.role);
  w->Key("rows_out").Int(node.rows_out);
  w->Key("rows_in").Int(node.rows_in);
  if (node.keyfilter_rejected > 0) {
    w->Key("keyfilter_rejected").Int(node.keyfilter_rejected);
  }
  w->Key("loops").Int(node.open_calls);
  w->Key("next_calls").Int(node.next_calls);
  w->Key("open_ms").Double(Ms(node.open_nanos));
  w->Key("next_ms").Double(Ms(node.next_nanos));
  w->Key("close_ms").Double(Ms(node.close_nanos));
  w->Key("total_ms").Double(Ms(node.total_nanos));
  w->Key("self_ms").Double(Ms(node.self_nanos));
  if (node.build_rows > 0) w->Key("build_rows").Int(node.build_rows);
  if (node.index_probes > 0) w->Key("index_probes").Int(node.index_probes);
  if (node.bytes_charged > 0) w->Key("bytes_charged").Int(node.bytes_charged);
  if (node.cache_hits + node.cache_misses > 0) {
    w->Key("cache_hits").Int(node.cache_hits);
    w->Key("cache_misses").Int(node.cache_misses);
    w->Key("cache_evictions").Int(node.cache_evictions);
  }
  if (node.spill_partitions > 0) {
    w->Key("spill_partitions").Int(node.spill_partitions);
    w->Key("spill_passes").Int(node.spill_passes);
    w->Key("spill_bytes_written").Int(node.spill_bytes_written);
    w->Key("spill_bytes_read").Int(node.spill_bytes_read);
  }
  w->Key("children").BeginArray();
  for (const MetricsNode& child : node.children) NodeJson(w, child);
  w->EndArray();
  w->EndObject();
}

}  // namespace

MetricsNode CollectMetricsTree(const Operator& root) {
  return Collect(root, "");
}

std::string RenderMetricsTree(const MetricsNode& node, bool include_timing) {
  std::string out;
  Render(node, 0, include_timing, &out);
  return out;
}

std::string MetricsNodeToJson(const MetricsNode& node) {
  JsonWriter w;
  NodeJson(&w, node);
  return std::move(w).str();
}

std::string QueryProfile::PhaseSummary() const {
  std::string out = StrFormat(
      "parse=%.3fms bind=%.3fms rewrite=%.3fms plan=%.3fms exec=%.3fms",
      Ms(parse_nanos), Ms(bind_nanos), Ms(rewrite_nanos), Ms(plan_nanos),
      Ms(exec_nanos));
  if (plan_cache_hit) out += " (plan cache: hit)";
  return out;
}

std::string QueryProfile::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("phases").BeginObject();
  w.Key("parse_ms").Double(Ms(parse_nanos));
  w.Key("bind_ms").Double(Ms(bind_nanos));
  w.Key("rewrite_ms").Double(Ms(rewrite_nanos));
  w.Key("plan_ms").Double(Ms(plan_nanos));
  w.Key("exec_ms").Double(Ms(exec_nanos));
  w.Key("total_ms").Double(Ms(TotalNanos()));
  w.Key("plan_cache_hit").Bool(plan_cache_hit);
  w.EndObject();
  if (enabled) {
    w.Key("plan").Raw(MetricsNodeToJson(plan));
  } else {
    w.Key("plan").Null();
  }
  w.EndObject();
  return std::move(w).str();
}

}  // namespace decorr
