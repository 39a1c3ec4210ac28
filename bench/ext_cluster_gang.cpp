// EXTENSION bench (paper §VI future work): cluster-level gang scheduling on
// top of per-node HPCSched. Four MPI jobs of different sizes and loads are
// gang-placed on a two-node POWER5 cluster under three policies; within each
// node HPCSched balances whatever lands there.

#include <cstdio>

#include "bench_common.h"
#include "cluster/gang.h"

using namespace hpcs;

namespace {

cluster::JobSpec metbench_job(const std::string& name, int ranks, double large_load,
                              int iterations) {
  cluster::JobSpec job;
  job.name = name;
  job.ranks = ranks;
  wl::MetBenchConfig cfg;
  cfg.iterations = iterations;
  cfg.loads.assign(static_cast<std::size_t>(ranks), large_load);
  // Alternate small/large like the paper's MetBench (intrinsic imbalance).
  for (std::size_t i = 0; i < cfg.loads.size(); i += 2) cfg.loads[i] = large_load / 4.0;
  for (const double l : cfg.loads) job.load_estimate += l * iterations;
  job.make_programs = [cfg] { return wl::make_metbench(cfg); };
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, /*takes=*/0);  // no flags: any argument exits 2
  std::printf("=== Extension: gang scheduling of MPI jobs over a 2-node cluster ===\n\n");

  const std::vector<cluster::JobSpec> jobs = {
      metbench_job("bigA", 4, 0.4e9, 12),
      metbench_job("bigB", 4, 0.4e9, 12),
      metbench_job("medA", 2, 0.4e9, 12),
      metbench_job("medB", 2, 0.4e9, 12),
  };

  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  // With gangs sharing CPUs (2+ HPC tasks per context) the round-robin slice
  // matters: the default 100 ms serializes co-located ranks across barrier
  // phases. A latency-sized slice keeps gangs interleaved.
  cfg.tunables.rr_slice = Duration::milliseconds(10);

  std::printf("%-14s %-10s %-34s %-12s\n", "policy", "makespan", "per-job (node:seconds)",
              "");
  for (const auto policy : {cluster::GangPolicy::kPacked, cluster::GangPolicy::kRoundRobin,
                            cluster::GangPolicy::kLeastLoaded}) {
    const auto res = cluster::run_cluster(cfg, jobs, policy);
    std::printf("%-14s %-10.2f ", cluster::gang_policy_name(policy), res.makespan.sec());
    for (const auto& j : res.jobs) {
      std::printf("%s=%d:%.1fs ", j.name.c_str(), j.node, j.exec_time.sec());
    }
    std::printf("\n");
  }

  std::printf(
      "\npacked co-locates both big jobs on node 0 (2 tasks/CPU) while node 1 idles;\n"
      "least-loaded spreads by estimated work and should win on makespan. Within every\n"
      "node, HPCSched still balances each job's intrinsic 4:1 imbalance.\n");

  // Same placement question without HPCSched: the in-node balancing benefit
  // stacks with the gang placement benefit.
  cluster::ClusterConfig stock = cfg;
  stock.hpcsched = false;
  const auto with = cluster::run_cluster(cfg, jobs, cluster::GangPolicy::kLeastLoaded);
  const auto without = cluster::run_cluster(stock, jobs, cluster::GangPolicy::kLeastLoaded);
  std::printf("\nleast-loaded makespan: HPCSched %.2fs vs stock CFS %.2fs (%+.1f%%)\n",
              with.makespan.sec(), without.makespan.sec(),
              100.0 * (1.0 - with.makespan.sec() / without.makespan.sec()));
  return 0;
}
