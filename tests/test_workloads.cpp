// Workload generator tests: op-stream well-formedness of the four paper
// workloads, parameter validation, behaviour switching (MetBenchVar),
// determinism of the stochastic SIESTA generator.

#include <gtest/gtest.h>

#include <variant>

#include "workloads/btmz.h"
#include "workloads/metbench.h"
#include "workloads/metbenchvar.h"
#include "workloads/repartition.h"
#include "workloads/siesta.h"

namespace hpcs::wl {
namespace {

/// Drain a program and return the ops up to (and including) OpExit.
std::vector<mpi::MpiOp> drain(mpi::RankProgram& p, int limit = 1000000) {
  std::vector<mpi::MpiOp> out;
  for (int i = 0; i < limit; ++i) {
    out.push_back(p.next());
    if (std::holds_alternative<mpi::OpExit>(out.back())) return out;
  }
  ADD_FAILURE() << "program did not terminate within " << limit << " ops";
  return out;
}

template <typename Op>
int count_ops(const std::vector<mpi::MpiOp>& ops) {
  int n = 0;
  for (const auto& op : ops) n += std::holds_alternative<Op>(op) ? 1 : 0;
  return n;
}

TEST(MetBench, OpStreamStructure) {
  MetBenchConfig cfg;
  cfg.iterations = 7;
  auto progs = make_metbench(cfg);
  ASSERT_EQ(progs.size(), 4u);
  for (auto& p : progs) {
    const auto ops = drain(*p);
    EXPECT_EQ(count_ops<mpi::OpCompute>(ops), 7);
    EXPECT_EQ(count_ops<mpi::OpBarrier>(ops), 7);
    EXPECT_EQ(count_ops<mpi::OpMarkIteration>(ops), 7);
    EXPECT_EQ(count_ops<mpi::OpExit>(ops), 1);
  }
}

TEST(MetBench, DefaultCalibrationIs4To1) {
  const MetBenchConfig cfg;
  EXPECT_NEAR(cfg.loads[1] / cfg.loads[0], 4.0, 1e-9);
  EXPECT_NEAR(cfg.loads[3] / cfg.loads[2], 4.0, 1e-9);
}

TEST(MetBench, RejectsNonPositiveLoads) {
  MetBenchConfig cfg;
  cfg.loads = {1.0, -5.0};
  EXPECT_DEATH(make_metbench(cfg), "positive");
}

TEST(MetBenchVar, LoadsSwitchEveryKIterations) {
  MetBenchVarConfig cfg;
  cfg.iterations = 6;
  cfg.k = 2;
  cfg.loads_a = {10.0, 20.0};
  cfg.loads_b = {20.0, 10.0};
  auto progs = make_metbenchvar(cfg);
  const auto ops = drain(*progs[0]);
  std::vector<double> computes;
  for (const auto& op : ops) {
    if (const auto* c = std::get_if<mpi::OpCompute>(&op)) computes.push_back(c->work);
  }
  // Periods: A A B B A A.
  EXPECT_EQ(computes, (std::vector<double>{10, 10, 20, 20, 10, 10}));
}

TEST(MetBenchVar, DefaultCalibrationMatchesTableIV) {
  const MetBenchVarConfig cfg;
  EXPECT_EQ(cfg.iterations, 45);
  EXPECT_EQ(cfg.k, 15);
  EXPECT_NEAR(cfg.loads_a[1] / cfg.loads_a[0], 4.0, 1e-9);  // 4:1 ratio
  // Phase B is the exact swap of phase A.
  for (std::size_t i = 0; i < cfg.loads_a.size(); i += 2) {
    EXPECT_DOUBLE_EQ(cfg.loads_a[i], cfg.loads_b[i + 1]);
    EXPECT_DOUBLE_EQ(cfg.loads_a[i + 1], cfg.loads_b[i]);
  }
}

TEST(BtMz, OpStreamStructure) {
  BtMzConfig cfg;
  cfg.iterations = 3;
  auto progs = make_btmz(cfg);
  ASSERT_EQ(progs.size(), 4u);
  const auto ops = drain(*progs[1]);
  EXPECT_EQ(count_ops<mpi::OpCompute>(ops), 3);
  EXPECT_EQ(count_ops<mpi::OpIrecv>(ops), 6);   // 2 neighbours x 3 iterations
  EXPECT_EQ(count_ops<mpi::OpIsend>(ops), 6);
  EXPECT_EQ(count_ops<mpi::OpWaitAll>(ops), 3);
  EXPECT_EQ(count_ops<mpi::OpBarrier>(ops), 0);  // BT-MZ has no global barrier
}

TEST(BtMz, RingNeighboursAreCorrect) {
  BtMzConfig cfg;
  cfg.iterations = 1;
  auto progs = make_btmz(cfg);
  const auto ops = drain(*progs[0]);  // rank 0: left=3, right=1
  std::vector<int> dsts;
  for (const auto& op : ops) {
    if (const auto* s = std::get_if<mpi::OpIsend>(&op)) dsts.push_back(s->dst);
  }
  EXPECT_EQ(dsts, (std::vector<int>{3, 1}));
}

TEST(BtMz, ZoneLoadsFollowTableVProfile) {
  const BtMzConfig cfg;
  // Monotone increasing loads, heaviest ~5.7x the lightest (99.85/17.63).
  for (std::size_t i = 1; i < cfg.zone_loads.size(); ++i) {
    EXPECT_GT(cfg.zone_loads[i], cfg.zone_loads[i - 1]);
  }
  EXPECT_NEAR(cfg.zone_loads[3] / cfg.zone_loads[0], 99.85 / 17.63, 0.35);
}

TEST(Siesta, OpStreamTerminatesAndScattersGathers) {
  SiestaConfig cfg;
  cfg.microiters = 50;
  cfg.mark_every = 10;
  auto progs = make_siesta(cfg);
  ASSERT_EQ(progs.size(), 4u);
  const auto driver_ops = drain(*progs[0]);
  EXPECT_EQ(count_ops<mpi::OpCompute>(driver_ops), 50);
  EXPECT_EQ(count_ops<mpi::OpSend>(driver_ops), 150);   // 3 workers x 50
  EXPECT_EQ(count_ops<mpi::OpRecv>(driver_ops), 150);
  EXPECT_EQ(count_ops<mpi::OpMarkIteration>(driver_ops), 5);
  const auto worker_ops = drain(*progs[1]);
  EXPECT_EQ(count_ops<mpi::OpCompute>(worker_ops), 50);
  EXPECT_EQ(count_ops<mpi::OpSend>(worker_ops), 50);
}

TEST(Siesta, BurstsVaryButAreDeterministicPerSeed) {
  SiestaConfig cfg;
  cfg.microiters = 30;
  auto collect = [&cfg]() {
    auto progs = make_siesta(cfg);
    std::vector<double> bursts;
    auto ops = drain(*progs[0]);
    for (const auto& op : ops) {
      if (const auto* c = std::get_if<mpi::OpCompute>(&op)) bursts.push_back(c->work);
    }
    return bursts;
  };
  const auto a = collect();
  const auto b = collect();
  EXPECT_EQ(a, b) << "same seed must generate identical bursts";
  // Bursts are not constant (irregular behaviour).
  EXPECT_NE(a[0], a[1]);
  cfg.seed = 99;
  const auto c = collect();
  EXPECT_NE(a, c) << "different seed must differ";
}

TEST(Siesta, MeanBurstNearConfigured) {
  SiestaConfig cfg;
  cfg.microiters = 2000;
  cfg.mark_every = 0;
  auto progs = make_siesta(cfg);
  auto ops = drain(*progs[0]);
  double sum = 0;
  int n = 0;
  for (const auto& op : ops) {
    if (const auto* c = std::get_if<mpi::OpCompute>(&op)) {
      sum += c->work;
      ++n;
    }
  }
  EXPECT_NEAR(sum / n, cfg.cycle_work, cfg.cycle_work * 0.1);
}

TEST(Repartition, LoadScheduleConvergesTowardMean) {
  RepartitionConfig cfg;
  cfg.initial_loads = {1.0, 3.0};
  cfg.period = 5;
  cfg.efficiency = 0.5;
  const auto at0 = repartition_loads_at(cfg, 0);
  EXPECT_DOUBLE_EQ(at0[0], 1.0);
  EXPECT_DOUBLE_EQ(at0[1], 3.0);
  const auto at5 = repartition_loads_at(cfg, 5);
  EXPECT_DOUBLE_EQ(at5[0], 1.5);  // halfway to the mean (2.0)
  EXPECT_DOUBLE_EQ(at5[1], 2.5);
  const auto at10 = repartition_loads_at(cfg, 10);
  EXPECT_DOUBLE_EQ(at10[0], 1.75);
  // Total work is conserved by every repartition.
  EXPECT_DOUBLE_EQ(at10[0] + at10[1], 4.0);
}

TEST(Repartition, NoPeriodMeansStaticLoads) {
  RepartitionConfig cfg;
  cfg.period = 0;
  const auto late = repartition_loads_at(cfg, 30);
  EXPECT_EQ(late, cfg.initial_loads);
}

TEST(Repartition, OpStreamPaysRepartitionCost) {
  RepartitionConfig cfg;
  cfg.iterations = 6;
  cfg.period = 3;
  cfg.initial_loads = {1.0e6, 2.0e6};
  auto progs = make_repartition(cfg);
  const auto ops = drain(*progs[0]);
  // 6 compute iterations + 1 repartition compute (at iteration 3).
  EXPECT_EQ(count_ops<mpi::OpCompute>(ops), 7);
  EXPECT_EQ(count_ops<mpi::OpAllreduce>(ops), 1);
  EXPECT_EQ(count_ops<mpi::OpBarrier>(ops), 6);
  EXPECT_EQ(count_ops<mpi::OpMarkIteration>(ops), 6);
}

}  // namespace
}  // namespace hpcs::wl
