// Collective-operation tests: allreduce synchronization + cost model,
// repeated rounds, PARAVER export of the resulting traces.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "simmpi/mpi_world.h"
#include "test_util.h"
#include "trace/paraver.h"

namespace hpcs::test {
namespace {

using mpi::MpiOp;
using mpi::RankProgram;

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
};

TEST(Collectives, AllreduceSynchronizesLikeBarrier) {
  WorldFixture f;
  // Rank 1 computes 10x longer; rank 0's mark must wait for it.
  mpi::MpiWorld w(f.k(), {},
                  programs({
                      {mpi::OpCompute{1.0e6}, mpi::OpAllreduce{64}, mpi::OpMarkIteration{}},
                      {mpi::OpCompute{10.0e6}, mpi::OpAllreduce{64}, mpi::OpMarkIteration{}},
                  }));
  w.start();
  mpi::run_to_completion(f.sim, w);
  EXPECT_GT(w.marks(0)[0].when, SimTime::zero() + Duration::milliseconds(15));
}

TEST(Collectives, AllreduceRepeatedRounds) {
  WorldFixture f;
  std::vector<MpiOp> ops;
  for (int i = 0; i < 5; ++i) {
    ops.push_back(mpi::OpCompute{1.0e6});
    ops.push_back(mpi::OpAllreduce{8});
    ops.push_back(mpi::OpMarkIteration{});
  }
  mpi::MpiWorld w(f.k(), {}, programs({ops, ops, ops}));
  w.start();
  mpi::run_to_completion(f.sim, w);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(w.marks(r).size(), 5u);
}

TEST(Paraver, ExportFormats) {
  WorldFixture f;
  auto tracer = std::make_unique<trace::Tracer>();
  f.k().set_trace(tracer.get());
  mpi::MpiWorld w(f.k(), {},
                  programs({
                      {mpi::OpCompute{1.0e6}, mpi::OpBarrier{}},
                      {mpi::OpCompute{2.0e6}, mpi::OpBarrier{}},
                  }));
  w.start();
  mpi::run_to_completion(f.sim, w);
  tracer->finalize(w.finish_time());

  trace::ParaverJob job;
  job.pids = {w.task(0).pid(), w.task(1).pid()};
  job.labels = {"rank0", "rank1"};
  job.cpus = 4;

  std::ostringstream prv;
  trace::write_prv(prv, *tracer, job);
  const std::string s = prv.str();
  EXPECT_EQ(s.rfind("#Paraver", 0), 0u) << "header must lead";
  EXPECT_NE(s.find(":1(4):1:2("), std::string::npos);  // 1 node of 4 cpus, 1 appl, 2 tasks
  EXPECT_NE(s.find(":1\n"), std::string::npos);     // running state records
  EXPECT_NE(s.find(":6\n"), std::string::npos);     // waiting state records

  std::ostringstream pcf;
  trace::write_pcf(pcf);
  EXPECT_NE(pcf.str().find("STATES"), std::string::npos);
  EXPECT_NE(pcf.str().find("Waiting a message"), std::string::npos);

  std::ostringstream row;
  trace::write_row(row, job);
  EXPECT_NE(row.str().find("LEVEL TASK SIZE 2"), std::string::npos);
  EXPECT_NE(row.str().find("rank1"), std::string::npos);
}

TEST(Paraver, ExportToFiles) {
  WorldFixture f;
  auto tracer = std::make_unique<trace::Tracer>();
  f.k().set_trace(tracer.get());
  mpi::MpiWorld w(f.k(), {}, programs({{mpi::OpCompute{1.0e6}}}));
  w.start();
  mpi::run_to_completion(f.sim, w);
  tracer->finalize(w.finish_time());
  trace::ParaverJob job;
  job.pids = {w.task(0).pid()};
  job.labels = {"rank0"};
  // ctest runs each test in its build tree, so the files stay there.
  EXPECT_TRUE(trace::export_paraver("hpcs_prv_test", *tracer, job));
  for (const char* ext : {".prv", ".pcf", ".row"}) {
    const std::string path = std::string("hpcs_prv_test") + ext;
    EXPECT_TRUE(std::ifstream(path).good()) << path;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace hpcs::test
