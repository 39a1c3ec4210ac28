// Tests of the POWER5 machine model: Table I decode arbitration, Table II
// privilege/or-nop encoding, throughput-model calibration anchors and
// monotonicity properties, SMT core + chip bookkeeping (including the
// speed-table oracle against the context_speeds scan), priority ISA.

#include <utility>

#include <gtest/gtest.h>

#include "power5/chip.h"
#include "power5/priority_isa.h"
#include "power5/throughput.h"

namespace hpcs::p5 {
namespace {

// ---- Table I -------------------------------------------------------------

TEST(DecodeAllocation, TableIExactRows) {
  // Paper Table I: (diff, R, cycles_hi, cycles_lo).
  const int rows[][4] = {{0, 2, 1, 1}, {1, 4, 3, 1}, {2, 8, 7, 1},
                         {3, 16, 15, 1}, {4, 32, 31, 1}, {5, 64, 63, 1}};
  for (const auto& row : rows) {
    EXPECT_EQ(decode_window(row[0]), row[1]);
    EXPECT_EQ(decode_window(-row[0]), row[1]) << "window must be symmetric";
  }
  // Realizable regular pairs.
  const DecodeAllocation a62 = decode_allocation(HwPrio::kHigh, HwPrio::kLow);
  EXPECT_EQ(a62.window, 32);
  EXPECT_EQ(a62.cycles_a, 31);
  EXPECT_EQ(a62.cycles_b, 1);
  EXPECT_FALSE(a62.special);
}

TEST(DecodeAllocation, PaperExample6vs2) {
  // "assuming priority 6 vs 2 (difference 4), the core fetches 31 times from
  // TaskA and once from TaskB".
  const DecodeAllocation a = decode_allocation(hw_prio_from_int(6), hw_prio_from_int(2));
  EXPECT_EQ(a.cycles_a, 31);
  EXPECT_EQ(a.cycles_b, 1);
}

TEST(DecodeAllocation, EqualPrioritiesSplitEvenly) {
  for (int p = 2; p <= 6; ++p) {
    const auto a = decode_allocation(hw_prio_from_int(p), hw_prio_from_int(p));
    EXPECT_EQ(a.window, 2);
    EXPECT_EQ(a.cycles_a, 1);
    EXPECT_EQ(a.cycles_b, 1);
  }
}

TEST(DecodeAllocation, SpecialPrioritiesBypassTableI) {
  EXPECT_TRUE(decode_allocation(HwPrio::kOff, HwPrio::kMedium).special);
  EXPECT_TRUE(decode_allocation(HwPrio::kVeryLow, HwPrio::kMedium).special);
  EXPECT_TRUE(decode_allocation(HwPrio::kVeryHigh, HwPrio::kMedium).special);
  EXPECT_FALSE(decode_allocation(HwPrio::kLow, HwPrio::kHigh).special);
}

TEST(DecodeAllocation, MirrorSymmetry) {
  for (int pa = 2; pa <= 6; ++pa) {
    for (int pb = 2; pb <= 6; ++pb) {
      const auto ab = decode_allocation(hw_prio_from_int(pa), hw_prio_from_int(pb));
      const auto ba = decode_allocation(hw_prio_from_int(pb), hw_prio_from_int(pa));
      EXPECT_EQ(ab.cycles_a, ba.cycles_b);
      EXPECT_EQ(ab.cycles_b, ba.cycles_a);
      EXPECT_EQ(ab.window, ba.window);
      EXPECT_EQ(ab.cycles_a + ab.cycles_b,
                (pa == pb) ? 2 : ab.window);  // hi + lo = R (or 1+1 at equal)
    }
  }
}

// ---- Table II ------------------------------------------------------------

TEST(PrivilegeTable, TableIIEncodings) {
  EXPECT_EQ(or_nop_register(HwPrio::kVeryLow), 31);
  EXPECT_EQ(or_nop_register(HwPrio::kLow), 1);
  EXPECT_EQ(or_nop_register(HwPrio::kMediumLow), 6);
  EXPECT_EQ(or_nop_register(HwPrio::kMedium), 2);
  EXPECT_EQ(or_nop_register(HwPrio::kMediumHigh), 5);
  EXPECT_EQ(or_nop_register(HwPrio::kHigh), 3);
  EXPECT_EQ(or_nop_register(HwPrio::kVeryHigh), 7);
  EXPECT_FALSE(or_nop_register(HwPrio::kOff).has_value());
}

TEST(PrivilegeTable, RoundTrip) {
  for (int p = 1; p <= 7; ++p) {
    const auto prio = hw_prio_from_int(p);
    const auto reg = or_nop_register(prio);
    ASSERT_TRUE(reg.has_value());
    EXPECT_EQ(prio_for_or_nop(*reg), prio);
  }
  EXPECT_FALSE(prio_for_or_nop(4).has_value());  // not an encoding
}

TEST(PrivilegeTable, PrivilegeLevels) {
  // User: 2,3,4. Supervisor adds 1,5,6. Hypervisor: 0,7.
  EXPECT_TRUE(can_set(Privilege::kUser, HwPrio::kLow));
  EXPECT_TRUE(can_set(Privilege::kUser, HwPrio::kMediumLow));
  EXPECT_TRUE(can_set(Privilege::kUser, HwPrio::kMedium));
  EXPECT_FALSE(can_set(Privilege::kUser, HwPrio::kMediumHigh));
  EXPECT_FALSE(can_set(Privilege::kUser, HwPrio::kHigh));
  EXPECT_FALSE(can_set(Privilege::kUser, HwPrio::kVeryLow));
  EXPECT_TRUE(can_set(Privilege::kSupervisor, HwPrio::kHigh));
  EXPECT_TRUE(can_set(Privilege::kSupervisor, HwPrio::kVeryLow));
  EXPECT_FALSE(can_set(Privilege::kSupervisor, HwPrio::kVeryHigh));
  EXPECT_FALSE(can_set(Privilege::kSupervisor, HwPrio::kOff));
  EXPECT_TRUE(can_set(Privilege::kHypervisor, HwPrio::kVeryHigh));
  EXPECT_TRUE(can_set(Privilege::kHypervisor, HwPrio::kOff));
}

// ---- Throughput model ----------------------------------------------------

TEST(Throughput, CalibrationAnchors) {
  const ThroughputParams p;
  // Equal priorities: 0.65 each (1.3x total SMT throughput).
  const auto eq = context_speeds(p, HwPrio::kMedium, true, HwPrio::kMedium, true);
  EXPECT_NEAR(eq.a, 0.65, 1e-9);
  EXPECT_NEAR(eq.b, 0.65, 1e-9);
  // Priority difference 2: winner ~+17%, loser ~4x slower (paper anchors).
  const auto d2 = context_speeds(p, HwPrio::kHigh, true, HwPrio::kMedium, true);
  EXPECT_NEAR(d2.a, 0.76, 1e-9);
  EXPECT_NEAR(d2.a / d2.b, 4.0, 0.1);
  // Priority difference 1 is gentle on the loser (concave curve): it keeps
  // ~85% of its equal-share speed — the Table V static profile.
  const auto d1 = context_speeds(p, HwPrio::kMediumHigh, true, HwPrio::kMedium, true);
  EXPECT_NEAR(d1.a, 0.73, 1e-9);
  EXPECT_NEAR(d1.b, 0.55, 1e-9);
  // The asymmetry of [4]: the winner gains X, the loser loses ~10X.
  const double winner_gain = d2.a / eq.a - 1.0;
  const double loser_loss = 1.0 - d2.b / eq.b;
  EXPECT_GT(loser_loss / winner_gain, 3.0);
}

TEST(Throughput, MonotoneInOwnPriority) {
  const ThroughputParams p;
  double prev = 0.0;
  for (int mine = 2; mine <= 6; ++mine) {
    const auto s = context_speeds(p, hw_prio_from_int(mine), true, HwPrio::kMedium, true);
    EXPECT_GE(s.a, prev - 1e-12) << "speed must not decrease with own priority";
    prev = s.a;
  }
}

TEST(Throughput, AntiMonotoneInSiblingPriority) {
  const ThroughputParams p;
  double prev = 2.0;
  for (int theirs = 2; theirs <= 6; ++theirs) {
    const auto s = context_speeds(p, HwPrio::kMedium, true, hw_prio_from_int(theirs), true);
    EXPECT_LE(s.a, prev + 1e-12);
    prev = s.a;
  }
}

TEST(Throughput, SpeedsAreBounded) {
  // Priority 7 (single-thread mode: sibling legitimately stalls at 0) is
  // covered by VeryHighMeansSiblingOff; here both contexts must progress.
  const ThroughputParams p;
  for (int pa = 1; pa <= 6; ++pa) {
    for (int pb = 1; pb <= 6; ++pb) {
      const auto s =
          context_speeds(p, hw_prio_from_int(pa), true, hw_prio_from_int(pb), true);
      EXPECT_GT(s.a, 0.0) << pa << " vs " << pb;
      EXPECT_LE(s.a, 1.0);
      EXPECT_GT(s.b, 0.0);
      EXPECT_LE(s.b, 1.0);
    }
  }
}

TEST(Throughput, SingleThreadModeWithTrueSnooze) {
  ThroughputParams p;
  p.idle_contention_prio = -1;  // context really off
  const auto s = context_speeds(p, HwPrio::kMedium, true, HwPrio::kMedium, false);
  EXPECT_DOUBLE_EQ(s.a, 1.0);
  EXPECT_DOUBLE_EQ(s.b, 0.0);
}

TEST(Throughput, SpinIdleKeepsContention) {
  const ThroughputParams p;  // default: idle contends at medium
  const auto s = context_speeds(p, HwPrio::kMedium, true, HwPrio::kMedium, false);
  EXPECT_NEAR(s.a, 0.65, 1e-9);  // no solo boost (Table III baseline)
  EXPECT_DOUBLE_EQ(s.b, 0.0);
  // ...but raising our priority against the spinning idle still helps.
  const auto s6 = context_speeds(p, HwPrio::kHigh, true, HwPrio::kMedium, false);
  EXPECT_NEAR(s6.a, 0.76, 1e-9);
}

TEST(Throughput, BackgroundPriority) {
  const ThroughputParams p;
  const auto s = context_speeds(p, HwPrio::kMedium, true, HwPrio::kVeryLow, true);
  EXPECT_NEAR(s.a, p.background_fg, 1e-9);
  EXPECT_NEAR(s.b, p.background_bg, 1e-9);
}

TEST(Throughput, VeryHighMeansSiblingOff) {
  const ThroughputParams p;
  const auto s = context_speeds(p, HwPrio::kVeryHigh, true, HwPrio::kMedium, true);
  EXPECT_DOUBLE_EQ(s.a, 1.0);
  EXPECT_DOUBLE_EQ(s.b, 0.0);
}

TEST(Throughput, DecodeShare) {
  EXPECT_DOUBLE_EQ(decode_share_a(HwPrio::kMedium, HwPrio::kMedium), 0.5);
  EXPECT_DOUBLE_EQ(decode_share_a(HwPrio::kHigh, HwPrio::kMedium), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(decode_share_a(HwPrio::kMedium, HwPrio::kHigh), 1.0 / 8.0);
}

// ---- SmtCore / Chip ------------------------------------------------------

TEST(SmtCore, SpeedUpdatesOnPriorityChange) {
  SmtCore core(0, ThroughputParams{});
  core.set_active(0, true);
  core.set_active(1, true);
  EXPECT_NEAR(core.speed(0), 0.65, 1e-9);
  int notifications = 0;
  core.set_listener([&](CoreId) { ++notifications; });
  EXPECT_TRUE(core.set_priority(0, HwPrio::kHigh));
  EXPECT_NEAR(core.speed(0), 0.76, 1e-9);
  EXPECT_LT(core.speed(1), 0.25);
  EXPECT_EQ(notifications, 1);
  EXPECT_FALSE(core.set_priority(0, HwPrio::kHigh));  // no-op, no notify
  EXPECT_EQ(notifications, 1);
}

// SmtCore reads its speeds from a CoreSpeedTable. Driven into every state
// it can hold — each priority pair, each active and snoozed flag — a core
// must report exactly the context_speeds scan, for every parameter preset.
TEST(SmtCore, SpeedTableMatchesScanInEveryState) {
  ThroughputParams true_snooze;
  true_snooze.idle_contention_prio = -1;
  const std::pair<const char*, ThroughputParams> presets[] = {
      {"default", ThroughputParams{}},
      {"power6", power6_params()},
      {"cell", cell_params()},
      {"true-snooze", true_snooze}};
  for (const auto& [name, p] : presets) {
    SmtCore core(0, p);
    for (int pa = 0; pa <= 7; ++pa) {
      for (int pb = 0; pb <= 7; ++pb) {
        for (int flags = 0; flags < 16; ++flags) {
          const bool aa = (flags & 8) != 0;
          const bool ba = (flags & 4) != 0;
          const bool as = (flags & 2) != 0;
          const bool bs = (flags & 1) != 0;
          core.set_priority(0, hw_prio_from_int(pa));
          core.set_priority(1, hw_prio_from_int(pb));
          core.set_active(0, aa);  // clears the snoozed flag ...
          core.set_active(1, ba);
          core.set_snoozed(0, as);  // ... so snooze goes last
          core.set_snoozed(1, bs);
          ASSERT_TRUE(core.active(0) == aa && core.active(1) == ba && core.snoozed(0) == as &&
                      core.snoozed(1) == bs);
          const CoreSpeeds want =
              context_speeds(p, hw_prio_from_int(pa), aa, hw_prio_from_int(pb), ba, as, bs);
          EXPECT_EQ(core.speed(0), want.a) << name << " " << pa << "/" << pb << " " << flags;
          EXPECT_EQ(core.speed(1), want.b) << name << " " << pa << "/" << pb << " " << flags;
        }
      }
    }
  }
}

TEST(Chip, TopologyMapping) {
  Chip chip(2);
  EXPECT_EQ(chip.num_cpus(), 4);
  EXPECT_EQ(Chip::core_of(0), 0);
  EXPECT_EQ(Chip::core_of(3), 1);
  EXPECT_EQ(Chip::ctx_of(2), 0);
  EXPECT_EQ(Chip::sibling_of(0), 1);
  EXPECT_EQ(Chip::sibling_of(3), 2);
  EXPECT_EQ(Chip::cpu_of(1, 1), 3);
}

TEST(Chip, PerCpuPriorityIsolation) {
  Chip chip(2);
  chip.set_cpu_active(0, true);
  chip.set_cpu_active(1, true);
  chip.set_cpu_active(2, true);
  chip.set_cpu_active(3, true);
  chip.set_cpu_priority(0, HwPrio::kHigh);
  EXPECT_NEAR(chip.cpu_speed(0), 0.76, 1e-9);
  EXPECT_LT(chip.cpu_speed(1), 0.25);
  // The other core is unaffected.
  EXPECT_NEAR(chip.cpu_speed(2), 0.65, 1e-9);
  EXPECT_NEAR(chip.cpu_speed(3), 0.65, 1e-9);
}

// ---- Priority ISA ----------------------------------------------------------

TEST(PriorityIsa, PrivilegeChecked) {
  Chip chip(2);
  PriorityIsa isa(chip);
  EXPECT_EQ(isa.set_priority(0, HwPrio::kMediumLow, Privilege::kUser), IsaResult::kOk);
  EXPECT_EQ(isa.read_priority(0), HwPrio::kMediumLow);
  // User cannot set 6; the write is silently dropped, priority unchanged.
  EXPECT_EQ(isa.set_priority(0, HwPrio::kHigh, Privilege::kUser), IsaResult::kNoPermission);
  EXPECT_EQ(isa.read_priority(0), HwPrio::kMediumLow);
  EXPECT_EQ(isa.set_priority(0, HwPrio::kHigh, Privilege::kSupervisor), IsaResult::kOk);
  EXPECT_EQ(isa.read_priority(0), HwPrio::kHigh);
  EXPECT_EQ(isa.rejected(), 1);
  EXPECT_EQ(isa.writes(), 2);
}

TEST(PriorityIsa, OrNopInterface) {
  Chip chip(2);
  PriorityIsa isa(chip);
  // or 3,3,3 sets High (supervisor required).
  EXPECT_EQ(isa.issue_or_nop(1, 3, Privilege::kSupervisor), IsaResult::kOk);
  EXPECT_EQ(isa.read_priority(1), HwPrio::kHigh);
  // or 4,4,4 is not a priority encoding.
  EXPECT_EQ(isa.issue_or_nop(1, 4, Privilege::kHypervisor), IsaResult::kBadEncoding);
}

}  // namespace
}  // namespace hpcs::p5
