#pragma once
// The benchmark's workloads as lists of experiment points. Every point is
// generated from the workload seed alone: the seed becomes
// ExperimentConfig::seed and, for SIESTA, the workload config's seed. The
// simulator only ever sees the generated configs.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "analysis/paper_experiments.h"

namespace pb {

enum class Workload { kSiesta, kMetBenchVar, kPaperSweep };

[[nodiscard]] bool parse_workload(std::string_view name, Workload& out);
[[nodiscard]] const char* workload_name(Workload w);

using Experiment =
    std::variant<hpcs::analysis::MetBenchExperiment, hpcs::analysis::MetBenchVarExperiment,
                 hpcs::analysis::BtMzExperiment, hpcs::analysis::SiestaExperiment>;

struct Point {
  std::string label;  ///< e.g. "table6_siesta/Uniform"
  Experiment exp;
  hpcs::analysis::SchedMode mode = hpcs::analysis::SchedMode::kBaselineCfs;
  std::uint64_t seed = 1;  ///< ExperimentConfig::seed
};

/// The k-th seed of the closed loop's seed cycle: k = 0 is `seed` itself.
[[nodiscard]] std::uint64_t cycle_seed(std::uint64_t seed, int k);

/// The points of one batch of `w`. `quick` shrinks every point to a few
/// iterations (self-test only; never used for a measured run).
[[nodiscard]] std::vector<Point> make_points(Workload w, std::uint64_t seed, bool quick = false);

/// Run through the paper's entry point (run_metbench / ... / run_siesta).
[[nodiscard]] hpcs::analysis::RunResult run_point(const Point& p, bool trace = false,
                                                  const hpcs::obs::ObsConfig& obs = {});

/// The config and programs the paper entry point builds, for reassembly.
[[nodiscard]] hpcs::analysis::ExperimentConfig point_config(const Point& p);
[[nodiscard]] hpcs::wl::ProgramSet point_programs(const Point& p);

/// Largest |measured - paper| improvement over Baseline, in percentage
/// points, across the non-baseline points whose table has a Baseline point
/// in the same batch. `results` is parallel to `points`. Returns -1 when
/// no point has a paper reference.
[[nodiscard]] double paper_err_pp(const std::vector<Point>& points,
                                  const std::vector<hpcs::analysis::RunResult>& results);

}  // namespace pb
