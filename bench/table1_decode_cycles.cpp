// Reproduces Table I (decode cycles per priority difference) and Table II
// (privilege level / or-nop encoding per priority), plus the calibrated
// decode-share -> throughput curve the scheduler relies on.

#include <cstdio>

#include "analysis/tables.h"
#include "bench_common.h"
#include "power5/throughput.h"

int main(int argc, char** argv) {
  using namespace hpcs;
  bench::parse_flags(argc, argv, /*takes=*/0);  // no flags: any argument exits 2

  std::printf("%s\n", analysis::render_decode_table().c_str());
  std::printf("%s\n", analysis::render_privilege_table().c_str());

  std::printf("Calibrated throughput model (speeds relative to single-thread mode)\n");
  std::printf("%-22s %-10s %-10s %-10s\n", "priorities (A vs B)", "speed A", "speed B",
              "ratio A/B");
  const p5::ThroughputParams params;
  for (int pa = 2; pa <= 6; ++pa) {
    for (int pb = 2; pb <= 6; ++pb) {
      if (pa < pb) continue;  // symmetric
      const auto s = p5::context_speeds(params, p5::hw_prio_from_int(pa), true,
                                        p5::hw_prio_from_int(pb), true);
      std::printf("  %d vs %-17d %-10.4f %-10.4f %-10.2f\n", pa, pb, s.a, s.b,
                  s.b > 0 ? s.a / s.b : 0.0);
    }
  }
  std::printf(
      "\ncalibration anchors (paper [4] and Table III): +15%% winner gain and ~4x loser\n"
      "slowdown at priority difference 2; a 4:1 intrinsic imbalance is cancelled by +/-2.\n");
  return 0;
}
