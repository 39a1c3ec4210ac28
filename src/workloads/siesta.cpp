#include "workloads/siesta.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace hpcs::wl {
namespace {

/// mu of the lognormal whose mean is `mean`: ln(mean) - sigma^2/2. A rank's
/// mean burst is fixed, so each program computes it once.
double lognormal_mu(double mean, double sigma) { return std::log(mean) - sigma * sigma / 2.0; }

double lognormal_burst(Rng& rng, double mu, double sigma) {
  return std::max(1.0, rng.lognormal(mu, sigma));
}

/// Rank 0: compute burst -> send work to every worker -> gather replies.
class SiestaDriver final : public mpi::RankProgram {
 public:
  SiestaDriver(const SiestaConfig& cfg, Rng rng)
      : cfg_(cfg),
        mu_(lognormal_mu(cfg.cycle_work * cfg.fractions[0], cfg.sigma)),
        rng_(std::move(rng)) {}

  mpi::MpiOp next() override {
    if (iter_ >= cfg_.microiters) return mpi::OpExit{};
    const int workers = cfg_.ranks - 1;
    if (phase_ == 0) {
      ++phase_;
      return mpi::OpCompute{lognormal_burst(rng_, mu_, cfg_.sigma)};
    }
    if (phase_ <= workers) {  // scatter
      const int dst = phase_;
      ++phase_;
      return mpi::OpSend{dst, 0, cfg_.msg_bytes};
    }
    if (phase_ <= 2 * workers) {  // gather
      const int src = phase_ - workers;
      ++phase_;
      return mpi::OpRecv{src, 0};
    }
    phase_ = 0;
    ++iter_;
    if (cfg_.mark_every > 0 && iter_ % cfg_.mark_every == 0) return mpi::OpMarkIteration{};
    return next();
  }

 private:
  SiestaConfig cfg_;
  double mu_;
  Rng rng_;
  int iter_ = 0;
  int phase_ = 0;
};

/// Worker: receive work -> compute a lognormal burst -> reply.
class SiestaWorker final : public mpi::RankProgram {
 public:
  SiestaWorker(const SiestaConfig& cfg, int rank, Rng rng)
      : cfg_(cfg),
        mu_(lognormal_mu(cfg.cycle_work * cfg.fractions[static_cast<std::size_t>(rank)],
                         cfg.sigma)),
        rng_(std::move(rng)) {}

  mpi::MpiOp next() override {
    if (iter_ >= cfg_.microiters) return mpi::OpExit{};
    switch (phase_) {
      case 0:
        phase_ = 1;
        return mpi::OpRecv{0, 0};
      case 1:
        phase_ = 2;
        return mpi::OpCompute{lognormal_burst(rng_, mu_, cfg_.sigma)};
      case 2:
        ++iter_;
        phase_ = (cfg_.mark_every > 0 && iter_ % cfg_.mark_every == 0) ? 3 : 0;
        return mpi::OpSend{0, 0, cfg_.msg_bytes};  // reply
      default:
        phase_ = 0;
        return mpi::OpMarkIteration{};
    }
  }

 private:
  SiestaConfig cfg_;
  double mu_;
  Rng rng_;
  int iter_ = 0;
  int phase_ = 0;
};

}  // namespace

ProgramSet make_siesta(const SiestaConfig& cfg) {
  HPCS_CHECK(cfg.ranks >= 2);
  HPCS_CHECK(static_cast<int>(cfg.fractions.size()) == cfg.ranks);
  Rng root(cfg.seed);
  ProgramSet out;
  out.push_back(std::make_unique<SiestaDriver>(cfg, root.fork()));
  for (int r = 1; r < cfg.ranks; ++r) {
    out.push_back(std::make_unique<SiestaWorker>(cfg, r, root.fork()));
  }
  return out;
}

}  // namespace hpcs::wl
