// Figure 5: Query 1 with all indexes present. Few subquery invocations, no
// duplicate bindings. Paper: magic slightly beats NI, Dayal beats magic
// (supplementary recomputation), Kim does poorly.
//
// Emits {"meta":…,"figures":[fig5]} as JSON to stdout (or `-o <path>`).
#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace decorr::bench;
  return FigureMain(argc, argv, TpcdDb, Fig5Spec());
}
