// Section 6 reproduction: nested iteration vs magic decorrelation in a
// shared-nothing parallel system. The paper argues (qualitatively) that NI
// yields O(n^2) computation fragments and per-invocation messaging, while a
// decorrelated plan repartitions once and works locally. The simulation
// reports fragments/messages/elapsed over the node count, plus the
// co-partitioned "Case 1" where NI parallelizes fine.
//
// Emits {"meta":…,"parallel":…} as JSON to stdout (or `-o <path>`).
#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace decorr::bench;
  const Output out = OpenOutput(argc, argv);
  decorr::JsonWriter w;
  w.BeginObject();
  WriteMeta(w);
  w.Key("parallel");
  WriteParallel(w);
  w.EndObject();
  return EmitDocument(out, std::move(w).str());
}
