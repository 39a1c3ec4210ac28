// Ablation: scheduling-policy components (paper §IV-A and §V-D).
//  1. SCHED_HPC FIFO vs RR with one process per CPU — the paper observed
//     "essentially no difference".
//  2. Policy-only HPCSched (the Null mechanism: hardware priorities off, so
//     the class schedules but cannot balance) vs full HPCSched — separating
//     the two sources of improvement the paper identifies (load balance vs
//     responsive policy).
//  3. Wakeup-cost sensitivity on the latency-bound SIESTA workload.
//
// Every run (including the hand-built FIFO world) is a self-contained
// simulation, so the whole ablation fans across the parallel experiment
// engine (--jobs N) and prints in order afterwards.

#include <cstdio>
#include <vector>

#include "analysis/paper_experiments.h"
#include "bench_common.h"
#include "exp/parallel_runner.h"

using namespace hpcs;
using analysis::SchedMode;

namespace {

/// MetBench under SCHED_HPC FIFO. The harness always creates its world with
/// RR, so this one is built by hand; only the exec time is read.
analysis::RunResult run_fifo(const wl::MetBenchConfig& w) {
  analysis::ExperimentConfig cfg = analysis::paper_defaults(SchedMode::kUniform, 1, false);
  sim::Simulator sim;
  kern::Kernel kernel(sim, cfg.kernel);
  hpc::HpcSchedConfig hc;
  hc.tunables = cfg.hpc;
  hpc::install_hpcsched(kernel, hc);
  kernel.start();
  Rng noise_rng(99);
  kern::spawn_noise_daemons(kernel, cfg.noise, noise_rng);
  mpi::MpiWorldConfig wc;
  wc.policy = kern::Policy::kHpcFifo;
  wc.placement = {0, 1, 2, 3};
  mpi::MpiWorld world(kernel, wc, wl::make_metbench(w));
  world.start();
  mpi::run_to_completion(sim, world);
  analysis::RunResult r;
  r.exec_time = world.finish_time() - SimTime::zero();
  return r;
}

/// The fixed runs, in batch order; the wakeup-cost sweep follows them. The
/// RR run (MetBench Uniform) is also the full-HPCSched MetBench run of the
/// balance-vs-policy decomposition.
enum Run : std::size_t {
  kRr, kFifo, kSiestaBase, kSiestaFull, kSiestaPolicyOnly, kMbBase, kMbPolicyOnly, kWakeupSweep
};

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_flags(argc, argv, bench::kJobs).jobs;

  auto mb = analysis::MetBenchExperiment::paper();
  mb.workload.iterations = 20;
  auto siesta = analysis::SiestaExperiment::paper();
  siesta.workload.microiters = 20000;
  const std::vector<int> wakeup_costs_us = {5, 15, 25, 50, 100};

  exp::ParallelRunner runner(jobs);
  const std::vector<analysis::RunResult> runs =
      runner.map(kWakeupSweep + wakeup_costs_us.size(), [&](std::size_t i) {
        // The policy-only runs use the Null mechanism: the HPC class works but
        // cannot touch hardware priorities -> pure policy effect.
        analysis::ExperimentConfig policy_cfg =
            analysis::paper_defaults(SchedMode::kUniform, 1, false);
        policy_cfg.kernel.hw_prio_enabled = false;
        switch (i) {
          case kRr: return analysis::run_metbench(mb, SchedMode::kUniform);
          case kFifo: return run_fifo(mb.workload);
          case kSiestaBase: return analysis::run_siesta(siesta, SchedMode::kBaselineCfs);
          case kSiestaFull: return analysis::run_siesta(siesta, SchedMode::kUniform);
          case kSiestaPolicyOnly:
            return analysis::run_experiment(policy_cfg, wl::make_siesta(siesta.workload));
          case kMbBase: return analysis::run_metbench(mb, SchedMode::kBaselineCfs);
          case kMbPolicyOnly:
            return analysis::run_experiment(policy_cfg, wl::make_metbench(mb.workload));
          default: {
            analysis::ExperimentConfig c =
                analysis::paper_defaults(SchedMode::kBaselineCfs, 1, false);
            c.kernel.cfs.wakeup_cost = Duration::microseconds(wakeup_costs_us[i - kWakeupSweep]);
            return analysis::run_experiment(c, wl::make_siesta(siesta.workload));
          }
        }
      });
  const analysis::RunResult& rr = runs[kRr];
  const double fifo_s = runs[kFifo].exec_time.sec();
  const analysis::RunResult& base = runs[kSiestaBase];
  const analysis::RunResult& full = runs[kSiestaFull];
  const analysis::RunResult& policy_only = runs[kSiestaPolicyOnly];
  const analysis::RunResult& mb_base = runs[kMbBase];
  const analysis::RunResult& mb_full = runs[kRr];
  const analysis::RunResult& mb_policy = runs[kMbPolicyOnly];

  // --- 1. FIFO vs RR ---------------------------------------------------------
  std::printf("=== Ablation 1: SCHED_HPC FIFO vs RR (one task per CPU) ===\n");
  std::printf("RR:   %.3fs\nFIFO: %.3fs\ndelta: %.2f%%  (paper: essentially none)\n",
              rr.exec_time.sec(), fifo_s,
              100.0 * (fifo_s - rr.exec_time.sec()) / rr.exec_time.sec());

  // --- 2. Balance vs policy decomposition ------------------------------------
  std::printf("\n=== Ablation 2: where does the improvement come from? ===\n");
  std::printf("SIESTA: baseline %.2fs | HPCSched(full) %+.2f%% | policy-only %+.2f%%\n",
              base.exec_time.sec(), analysis::improvement_pct(base, full),
              analysis::improvement_pct(base, policy_only));
  std::printf("(paper §V-D: SIESTA's ~6%% comes from the policy, not the balancing)\n");
  std::printf("MetBench: baseline %.2fs | HPCSched(full) %+.2f%% | policy-only %+.2f%%\n",
              mb_base.exec_time.sec(), analysis::improvement_pct(mb_base, mb_full),
              analysis::improvement_pct(mb_base, mb_policy));
  std::printf("(MetBench is balance-bound: the policy alone does little)\n");

  // --- 3. Wakeup-cost sensitivity --------------------------------------------
  std::printf("\n=== Ablation 3: CFS wakeup-cost sensitivity (SIESTA baseline) ===\n");
  std::printf("%-16s %-12s\n", "cfs cost (us)", "exec (s)");
  for (std::size_t i = 0; i < wakeup_costs_us.size(); ++i) {
    std::printf("%-16d %-12.2f\n", wakeup_costs_us[i], runs[kWakeupSweep + i].exec_time.sec());
  }
  return 0;
}
