// Table 1 reproduction: the TPC-D database cardinalities (exact at SF 0.1).
//
// Emits {"meta":…,"table1":…} as JSON to stdout (or `-o <path>`).
#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace decorr::bench;
  const Output out = OpenOutput(argc, argv);
  decorr::JsonWriter w;
  w.BeginObject();
  WriteMeta(w);
  w.Key("table1");
  WriteTable1(w, TpcdDb());
  w.EndObject();
  return EmitDocument(out, std::move(w).str());
}
