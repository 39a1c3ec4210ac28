#pragma once
// EXTENSION — the paper's future work (§VI): cluster-level scheduling.
// "HPCSched is a task scheduler able to balance HPC applications inside a
// node [...] there is another level of load balancing which consists of
// assigning the correct group of tasks to each node (gang scheduling),
// considering that the local scheduler is able to dynamically assign more or
// less hardware resources to each task."
//
// A cluster is a set of nodes, each a full simulated POWER5 machine running
// its own kernel (with HPCSched installed). Jobs — MPI applications — are
// gang-assigned to nodes; within a node, HPCSched balances them.

#include <functional>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "workloads/metbench.h"

namespace hpcs::cluster {

/// A job to place: a rank-program factory plus scheduling metadata.
struct JobSpec {
  std::string name;
  /// run_cluster calls it once per job, on the caller's thread.
  std::function<wl::ProgramSet()> make_programs;
  int ranks = 4;
  /// Estimated total load (work units) — the gang scheduler's sizing hint,
  /// like a batch system's walltime estimate.
  double load_estimate = 0.0;
};

/// Gang-placement policies.
enum class GangPolicy {
  kPacked,       ///< first-fit: fill node 0, then node 1, ...
  kRoundRobin,   ///< job i -> node i % N
  kLeastLoaded,  ///< place each job on the node with the least estimated load
};

[[nodiscard]] const char* gang_policy_name(GangPolicy p);

/// Compute the job->node assignment for a policy. Pure function (unit
/// testable without running a simulation).
[[nodiscard]] std::vector<int> assign_jobs(const std::vector<JobSpec>& jobs, int nodes,
                                           int cpus_per_node, GangPolicy policy);

struct JobResult {
  std::string name;
  int node = 0;
  Duration exec_time = Duration::zero();
  SimTime finish = SimTime::zero();
};

struct ClusterResult {
  std::vector<JobResult> jobs;
  Duration makespan = Duration::zero();  ///< completion of the last job
};

struct ClusterConfig {
  int nodes = 2;
  kern::KernelConfig node_kernel{};
  bool hpcsched = true;  ///< install HPCSched (Uniform) on every node
  hpc::HpcTunables tunables{};
  bool noise = true;
  kern::NoiseConfig noise_config{};
  mpi::NetworkParams net{};
  std::uint64_t seed = 1;
};

/// Run all jobs to completion on the simulated cluster under a policy.
ClusterResult run_cluster(const ClusterConfig& cfg, const std::vector<JobSpec>& jobs,
                          GangPolicy policy);

}  // namespace hpcs::cluster
