// Figure 9: Query 3 — non-linear (UNION ALL inside a correlated derived
// table), heavy duplication in the correlation column (5 distinct nations
// across ~200 European suppliers). Paper: Kim and Dayal are inapplicable
// (recorded as ok=false entries); magic decorrelation yields a tremendous
// improvement over NI thanks to the duplicate elimination in the magic
// table.
//
// Emits {"meta":…,"figures":[fig9]} as JSON to stdout (or `-o <path>`).
#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace decorr::bench;
  return FigureMain(argc, argv, TpcdDb, Fig9Spec());
}
