#include "workloads/metbench.h"

#include "common/check.h"

namespace hpcs::wl {
namespace {

/// Compute -> barrier -> mark, `iterations` times, then exit.
class MetBenchWorker final : public mpi::RankProgram {
 public:
  MetBenchWorker(double load, int iterations) : load_(load), iterations_(iterations) {}

  mpi::MpiOp next() override {
    if (iter_ >= iterations_) return mpi::OpExit{};
    switch (phase_) {
      case 0:
        phase_ = 1;
        return mpi::OpCompute{load_};
      case 1:
        phase_ = 2;
        return mpi::OpBarrier{};
      default:
        phase_ = 0;
        ++iter_;
        return mpi::OpMarkIteration{};
    }
  }

 protected:
  double load_;

 private:
  int iterations_;
  int iter_ = 0;
  int phase_ = 0;
};

}  // namespace

ProgramSet make_metbench(const MetBenchConfig& cfg) {
  HPCS_CHECK_MSG(!cfg.loads.empty(), "MetBench needs at least one worker load");
  ProgramSet out;
  for (const double load : cfg.loads) {
    HPCS_CHECK_MSG(load > 0.0, "worker loads must be positive");
    out.push_back(std::make_unique<MetBenchWorker>(load, cfg.iterations));
  }
  return out;
}

}  // namespace hpcs::wl
