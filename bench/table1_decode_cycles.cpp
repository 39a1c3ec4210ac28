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
  const auto speeds = [&params](int pa, int pb) {
    return p5::context_speeds(params, p5::hw_prio_from_int(pa), true, p5::hw_prio_from_int(pb),
                              true);
  };
  for (int pa = 2; pa <= 6; ++pa) {
    for (int pb = 2; pb <= 6; ++pb) {
      if (pa < pb) continue;  // symmetric
      const auto s = speeds(pa, pb);
      std::printf("  %d vs %-17d %-10.4f %-10.4f %-10.2f\n", pa, pb, s.a, s.b,
                  s.b > 0 ? s.a / s.b : 0.0);
    }
  }
  // The anchors, read off the curve above: 6 vs 4 against 4 vs 4.
  const auto even = speeds(4, 4);
  const auto skew = speeds(6, 4);
  std::printf(
      "\ncalibration anchors (paper [4] and Table III): %+.1f%% winner gain and %.1fx loser\n"
      "slowdown at priority difference 2; a %.0f:1 intrinsic imbalance is cancelled by +/-2.\n",
      100.0 * (skew.a / even.a - 1.0), even.b / skew.b, skew.a / skew.b);
  return 0;
}
