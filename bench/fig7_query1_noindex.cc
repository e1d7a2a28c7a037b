// Figure 7: Query 1 variant with the partsupp indexes dropped, making each
// subquery invocation expensive (full partsupp scans). Paper: NI degrades
// sharply; magic (set-oriented) and Kim stay efficient. See
// bench::Fig7Database() for the index-substitution note.
//
// Emits {"meta":…,"figures":[fig7]} as JSON to stdout (or `-o <path>`).
#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace decorr::bench;
  return FigureMain(argc, argv, Fig7Database, Fig7Spec());
}
