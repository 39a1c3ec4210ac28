// MPI runtime tests: barrier correctness for arbitrary N, blocking and
// non-blocking point-to-point semantics, waitall (including isend
// completion), message matching with wildcards, network delay model,
// iteration marks, and deadlock-free exit semantics.

#include <gtest/gtest.h>

#include <numeric>

#include "simmpi/mpi_world.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using mpi::MpiOp;
using mpi::RankProgram;

/// Program defined by an inline op vector.
class OpListProgram final : public RankProgram {
 public:
  explicit OpListProgram(std::vector<MpiOp> ops) : ops_(std::move(ops)) {}
  MpiOp next() override {
    if (i_ >= ops_.size()) return mpi::OpExit{};
    return ops_[i_++];
  }

 private:
  std::vector<MpiOp> ops_;
  std::size_t i_ = 0;
};

std::vector<std::unique_ptr<RankProgram>> programs(
    std::initializer_list<std::vector<MpiOp>> lists) {
  std::vector<std::unique_ptr<RankProgram>> out;
  for (const auto& l : lists) out.push_back(std::make_unique<OpListProgram>(l));
  return out;
}

struct WorldFixture : KernelFixture {
  WorldFixture() { k().start(); }

  mpi::MpiWorld make_world(std::vector<std::unique_ptr<RankProgram>> progs,
                           mpi::MpiWorldConfig cfg = {}) {
    return mpi::MpiWorld(k(), cfg, std::move(progs));
  }
};

TEST(SimMpi, NetworkDelayScalesWithSize) {
  mpi::NetworkParams p;
  p.jitter_frac = 0.0;
  mpi::NetworkModel net(p, Rng(1));
  const Duration small = net.delay(0);
  const Duration large = net.delay(1000000);  // 1 MB at ~1 GB/s -> ~1 ms extra
  EXPECT_EQ(small, Duration::microseconds(5));
  EXPECT_NEAR((large - small).ms(), 1.0, 0.05);
}

TEST(SimMpi, BarrierSynchronizesUnevenRanks) {
  WorldFixture f;
  // Rank 1 computes 10x longer; rank 0 must wait at the barrier.
  auto w = f.make_world(programs({
      {mpi::OpCompute{1.0e6}, mpi::OpBarrier{}, mpi::OpMarkIteration{}},
      {mpi::OpCompute{10.0e6}, mpi::OpBarrier{}, mpi::OpMarkIteration{}},
  }));
  w.start();
  mpi::run_to_completion(f.sim, w);
  EXPECT_EQ(w.barriers_completed(), 1);
  // Both marks happen after the slow rank finished (within the release RTT).
  const SimTime m0 = w.marks(0)[0].when;
  const SimTime m1 = w.marks(1)[0].when;
  EXPECT_GT(m0, SimTime::zero() + Duration::milliseconds(15));
  EXPECT_LT((m0 - m1).ns() < 0 ? (m1 - m0) : (m0 - m1), Duration::milliseconds(1));
}

TEST(SimMpi, BarrierManyRanksManyIterations) {
  WorldFixture f;
  // 6 ranks (more than CPUs) x 5 iterations, random-ish loads.
  std::vector<std::unique_ptr<RankProgram>> progs;
  for (int r = 0; r < 6; ++r) {
    std::vector<MpiOp> ops;
    for (int i = 0; i < 5; ++i) {
      ops.push_back(mpi::OpCompute{1.0e6 * (r + 1)});
      ops.push_back(mpi::OpBarrier{});
      ops.push_back(mpi::OpMarkIteration{});
    }
    progs.push_back(std::make_unique<OpListProgram>(ops));
  }
  auto w = f.make_world(std::move(progs));
  w.start();
  mpi::run_to_completion(f.sim, w);
  EXPECT_EQ(w.barriers_completed(), 5);
  for (int r = 0; r < 6; ++r) EXPECT_EQ(w.marks(r).size(), 5u);
  // No rank may pass barrier i before every rank has arrived: mark i of the
  // fast ranks is never earlier than the slowest rank's compute end.
  for (int i = 0; i < 5; ++i) {
    SimTime lo = SimTime::max();
    SimTime hi = SimTime::zero();
    for (int r = 0; r < 6; ++r) {
      lo = std::min(lo, w.marks(r)[static_cast<std::size_t>(i)].when);
      hi = std::max(hi, w.marks(r)[static_cast<std::size_t>(i)].when);
    }
    // With 6 ranks on 4 CPUs two ranks share a CPU, so the marks of
    // co-located ranks are a few scheduler ticks apart.
    EXPECT_LT(hi - lo, Duration::milliseconds(20)) << "barrier " << i << " not aligned";
    if (i > 0) {
      SimTime prev_hi = SimTime::zero();
      for (int r = 0; r < 6; ++r) {
        prev_hi = std::max(prev_hi, w.marks(r)[static_cast<std::size_t>(i - 1)].when);
      }
      EXPECT_GE(lo, prev_hi - Duration::milliseconds(20))
          << "barrier " << i << " passed before barrier " << i - 1 << " settled";
    }
  }
}

TEST(SimMpi, BlockingRecvWaitsForMessage) {
  WorldFixture f;
  auto w = f.make_world(programs({
      {mpi::OpCompute{5.0e6}, mpi::OpSend{1, 7, 1024}},
      {mpi::OpRecv{0, 7}, mpi::OpMarkIteration{}},
  }));
  w.start();
  mpi::run_to_completion(f.sim, w);
  EXPECT_EQ(w.messages_delivered(), 1);
  // Rank 1 could only mark after rank 0's ~7.7 ms compute + transfer.
  EXPECT_GT(w.marks(1)[0].when, SimTime::zero() + Duration::milliseconds(7));
}

TEST(SimMpi, RecvMatchesBySourceAndTag) {
  WorldFixture f;
  // Rank 2 receives specifically (src=1, tag=9) even though (0, 5) arrives
  // first, then consumes the other message with wildcards.
  auto w = f.make_world(programs({
      {mpi::OpSend{2, 5, 64}},
      {mpi::OpCompute{3.0e6}, mpi::OpSend{2, 9, 64}},
      {mpi::OpRecv{1, 9}, mpi::OpMarkIteration{}, mpi::OpRecv{mpi::kAnySource, mpi::kAnyTag},
       mpi::OpMarkIteration{}},
  }));
  w.start();
  mpi::run_to_completion(f.sim, w);
  EXPECT_EQ(w.marks(2).size(), 2u);
  EXPECT_GT(w.marks(2)[0].when, SimTime::zero() + Duration::milliseconds(4));
}

TEST(SimMpi, WaitAllCoversIrecvAndIsend) {
  WorldFixture f;
  // Symmetric neighbour exchange between two ranks, BT-MZ style.
  auto exchange = [](int peer) {
    return std::vector<MpiOp>{
        mpi::OpCompute{2.0e6}, mpi::OpIrecv{peer, 0}, mpi::OpIsend{peer, 0, 4096},
        mpi::OpWaitAll{},      mpi::OpMarkIteration{},
    };
  };
  auto w = f.make_world(programs({exchange(1), exchange(0)}));
  w.start();
  mpi::run_to_completion(f.sim, w);
  EXPECT_EQ(w.messages_delivered(), 2);
  EXPECT_EQ(w.marks(0).size(), 1u);
  EXPECT_EQ(w.marks(1).size(), 1u);
}

TEST(SimMpi, IrecvConsumesAlreadyArrivedMessage) {
  WorldFixture f;
  // The message arrives long before the irecv is posted: waitall must not
  // block forever.
  auto w = f.make_world(programs({
      {mpi::OpSend{1, 3, 128}},
      {mpi::OpCompute{20.0e6}, mpi::OpIrecv{0, 3}, mpi::OpWaitAll{}, mpi::OpMarkIteration{}},
  }));
  w.start();
  mpi::run_to_completion(f.sim, w);
  EXPECT_EQ(w.marks(1).size(), 1u);
}

TEST(SimMpi, IterationMarksCarryCpuTime) {
  WorldFixture f;
  auto w = f.make_world(programs({
      {mpi::OpCompute{5.0e6}, mpi::OpMarkIteration{}, mpi::OpCompute{5.0e6},
       mpi::OpMarkIteration{}},
  }));
  w.start();
  mpi::run_to_completion(f.sim, w);
  const auto& marks = w.marks(0);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_NEAR(marks[0].cpu_time.ms(), 5.0 / 0.65, 0.5);
  EXPECT_NEAR((marks[1].cpu_time - marks[0].cpu_time).ms(), 5.0 / 0.65, 0.5);
}

TEST(SimMpi, ExitDuringBarrierDoesNotDeadlock) {
  WorldFixture f;
  // Rank 1 exits without ever reaching the barrier rank 0 waits on...
  // here: rank 1 runs one barrier less. The world must still terminate.
  auto w = f.make_world(programs({
      {mpi::OpCompute{1.0e6}, mpi::OpBarrier{}, mpi::OpCompute{1.0e6}, mpi::OpBarrier{}},
      {mpi::OpCompute{1.0e6}, mpi::OpBarrier{}},
  }));
  w.start();
  mpi::run_to_completion(f.sim, w, SimTime::zero() + Duration::seconds(10.0));
  EXPECT_TRUE(w.done());
}

TEST(SimMpi, StaticHwPriosApplied) {
  WorldFixture f;
  mpi::MpiWorldConfig cfg;
  cfg.static_hw_prio = {4, 6};
  auto w = f.make_world(programs({
                            {mpi::OpCompute{1.0e6}},
                            {mpi::OpCompute{1.0e6}},
                        }),
                        cfg);
  EXPECT_EQ(p5::to_int(w.task(0).hw_prio), 4);
  EXPECT_EQ(p5::to_int(w.task(1).hw_prio), 6);
  w.start();
  mpi::run_to_completion(f.sim, w);
}

TEST(SimMpi, PlacementRoundRobinByDefault) {
  WorldFixture f;
  std::vector<std::unique_ptr<RankProgram>> progs;
  for (int r = 0; r < 4; ++r) {
    progs.push_back(std::make_unique<OpListProgram>(std::vector<MpiOp>{mpi::OpCompute{1.0e3}}));
  }
  auto w = f.make_world(std::move(progs));
  for (int r = 0; r < 4; ++r) EXPECT_EQ(w.task(r).cpu, r);
  w.start();
  mpi::run_to_completion(f.sim, w);
}

TEST(SimMpi, EagerSendDoesNotBlock) {
  WorldFixture f;
  auto w = f.make_world(programs({
      {mpi::OpSend{1, 0, 1 << 20}, mpi::OpMarkIteration{}},
      {mpi::OpCompute{20.0e6}, mpi::OpRecv{0, 0}},
  }));
  w.start();
  mpi::run_to_completion(f.sim, w);
  EXPECT_LT(w.marks(0)[0].when, SimTime::zero() + Duration::milliseconds(1));
}

/// Finish time of one rank computing 1e9 work units, run to `deadline`.
SimTime one_long_rank(SimTime deadline) {
  WorldFixture f;
  auto w = f.make_world(programs({{mpi::OpCompute{1.0e9}}}));
  w.start();
  return mpi::run_to_completion(f.sim, w, deadline);
}

// run_to_completion runs no event past its deadline: a world that completes
// after it aborts instead of returning late, while one that completes at the
// deadline returns.
TEST(SimMpiDeathTest, WorldCompletingAfterTheDeadlineAborts) {
  const SimTime finish = one_long_rank(SimTime::max());
  EXPECT_EQ(one_long_rank(finish), finish);
  EXPECT_DEATH(one_long_rank(finish - Duration(1)), "deadline reached");
}

}  // namespace
}  // namespace hpcs::test
