// One-command perf baseline: runs every figure, the Table 1 cardinalities,
// the knob ablations and the Section 6 parallel simulation, and emits the
// combined BENCH_figures.json document:
//
//   build/bench/bench_figures_json -o BENCH_figures.json
//
// Figure 7 must run last: it drops the partsupp indexes from the shared
// TPC-D database for the rest of the process (see bench::Fig7Database()).
// CI compares the vs_ni ratios and row counts of a fresh run against the
// committed baseline (bench/check_bench_regression.py).
#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace decorr::bench;
  const Output out = OpenOutput(argc, argv);
  decorr::JsonWriter w;
  w.BeginObject();
  WriteMeta(w);
  w.Key("table1");
  WriteTable1(w, TpcdDb());
  w.Key("figures").BeginArray();
  WriteFigure(w, TpcdDb(), Fig5Spec());
  WriteFigure(w, TpcdDb(), Fig6Spec());
  WriteFigure(w, TpcdDb(), Fig8Spec());
  WriteFigure(w, TpcdDb(), Fig9Spec());
  w.EndArray();
  w.Key("cache_sweep");
  WriteCacheSweep(w, TpcdDb(), "all indexes");
  w.Key("dedup_prune_sweep");
  WriteDedupPruneSweep(w, TpcdDb());
  w.Key("spill_sweep");
  WriteSpillSweep(w, TpcdDb(), "all indexes",
                  {{"fig8_mag", "fig8", decorr::TpcdQuery2()}});
  w.Key("ablations");
  WriteAblations(w, TpcdDb());
  w.Key("parallel");
  WriteParallel(w);
  // Before Figure 7: the served runs and their single-session reference
  // must see the same (fully indexed) catalog regime.
  w.Key("server_throughput");
  WriteServerThroughput(w, TpcdDb());
  // Last: mutates the shared database (drops partsupp indexes).
  w.Key("figures_noindex").BeginArray();
  WriteFigure(w, Fig7Database(), Fig7Spec());
  w.EndArray();
  // Same sweep under Figure 7's expensive-invocation condition: with the
  // partsupp indexes gone every cache miss pays a full scan, so the
  // duplicate-heavy levels show memoization decisively beating plain NI.
  w.Key("cache_sweep_noindex");
  WriteCacheSweep(w, Fig7Database(), "partsupp indexes dropped");
  // Figure 7's expensive-invocation condition for the spill ladder too.
  w.Key("spill_sweep_noindex");
  WriteSpillSweep(w, Fig7Database(), "partsupp indexes dropped",
                  {{"fig7_mag", "fig7", decorr::TpcdQuery1Variant()}});
  w.EndObject();
  return EmitDocument(out, std::move(w).str());
}
