// Ablations of the design choices DESIGN.md calls out (Section 4.4's
// "knobs" plus the supplementary-table handling of Section 5.1):
//   1. supplementary recompute (Mag) vs materialize (OptMag);
//   2. decorrelating existential subqueries vs leaving them to NI;
//   3. outer-join availability for COUNT-bug removal;
//   4. property-derived dedup pruning on vs off (redundant DISTINCT /
//      back-join elimination, ISSUE 6).
//
// Emits {"meta":…,"ablations":[…]} as JSON to stdout (or `-o <path>`).
#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace decorr::bench;
  const Output out = OpenOutput(argc, argv);
  decorr::JsonWriter w;
  w.BeginObject();
  WriteMeta(w);
  w.Key("ablations");
  WriteAblations(w, TpcdDb());
  w.EndObject();
  return EmitDocument(out, std::move(w).str());
}
