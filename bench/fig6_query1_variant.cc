// Figure 6: Query 1 variant (p_size dropped; regions AMERICA+EUROPE).
// Thousands of subquery invocations, many duplicate bindings. Paper: magic
// continues to perform well, Kim improves, Dayal degrades (large join
// before aggregation), NI pays for the repeated invocations.
//
// Emits {"meta":…,"figures":[fig6]} as JSON to stdout (or `-o <path>`).
#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace decorr::bench;
  return FigureMain(argc, argv, TpcdDb, Fig6Spec());
}
