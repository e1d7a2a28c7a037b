// Figure 8: Query 2 (TPC-D Q17 style) — the correlation attribute is a key,
// the subquery is cheap (indexed). Paper: decorrelation cannot help much;
// OptMag matches NI, Mag is slightly worse (supplementary recomputation),
// and Kim / Dayal are orders of magnitude worse (they aggregate the whole
// of lineitem / join before aggregating).
//
// Emits {"meta":…,"figures":[fig8]} as JSON to stdout (or `-o <path>`).
#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace decorr::bench;
  return FigureMain(argc, argv, TpcdDb, Fig8Spec());
}
