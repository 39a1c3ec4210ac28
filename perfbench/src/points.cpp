#include "points.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace pb {

using namespace hpcs;
using analysis::SchedMode;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30U)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27U)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31U);
}

// Small positive seeds keep the derived values readable in logs.
std::uint64_t experiment_seed(std::uint64_t seed) { return splitmix64(seed) % 1000000007ULL + 1; }
std::uint64_t siesta_seed(std::uint64_t seed) { return splitmix64(seed ^ 0x5151ULL) % 1000000007ULL + 1; }

const char* table_of(const Experiment& e) {
  switch (e.index()) {
    case 0: return "table3_metbench";
    case 1: return "table4_metbenchvar";
    case 2: return "table5_btmz";
    default: return "table6_siesta";
  }
}

analysis::PaperReference reference(const Experiment& e, SchedMode m) {
  switch (e.index()) {
    case 0: return analysis::paper_reference_metbench(m);
    case 1: return analysis::paper_reference_metbenchvar(m);
    case 2: return analysis::paper_reference_btmz(m);
    default: return analysis::paper_reference_siesta(m);
  }
}

struct Tables {
  analysis::MetBenchExperiment metbench = analysis::MetBenchExperiment::paper();
  analysis::MetBenchVarExperiment metbenchvar = analysis::MetBenchVarExperiment::paper();
  analysis::BtMzExperiment btmz = analysis::BtMzExperiment::paper();
  analysis::SiestaExperiment siesta = analysis::SiestaExperiment::paper();
};

const std::vector<SchedMode> kFourModes = {SchedMode::kBaselineCfs, SchedMode::kStatic,
                                           SchedMode::kUniform, SchedMode::kAdaptive};
const std::vector<SchedMode> kSiestaModes = {SchedMode::kBaselineCfs, SchedMode::kUniform,
                                             SchedMode::kAdaptive};

void add_table(std::vector<Point>& out, const Experiment& e, const std::vector<SchedMode>& modes,
               std::uint64_t seed) {
  for (SchedMode m : modes) {
    out.push_back({std::string(table_of(e)) + "/" + analysis::sched_mode_name(m), e, m, seed});
  }
}

}  // namespace

std::uint64_t cycle_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed : splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(k)));
}

bool parse_workload(std::string_view name, Workload& out) {
  for (Workload w : {Workload::kSiesta, Workload::kMetBenchVar, Workload::kPaperSweep}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSiesta: return "siesta";
    case Workload::kMetBenchVar: return "metbenchvar";
    case Workload::kPaperSweep: return "paper_sweep";
  }
  return "?";
}

std::vector<Point> make_points(Workload w, std::uint64_t seed, bool quick) {
  Tables t;
  t.siesta.workload.seed = siesta_seed(seed);
  if (quick) {
    t.metbench.workload.iterations = 4;
    t.metbenchvar.workload.iterations = 6;
    t.metbenchvar.workload.k = 2;
    t.btmz.workload.iterations = 20;
    t.siesta.workload.microiters = 1500;
  }
  const std::uint64_t s = experiment_seed(seed);
  std::vector<Point> out;
  switch (w) {
    case Workload::kSiesta:
      add_table(out, t.siesta, kSiestaModes, s);
      break;
    case Workload::kMetBenchVar:
      add_table(out, t.metbenchvar, kFourModes, s);
      break;
    case Workload::kPaperSweep:
      add_table(out, t.metbench, kFourModes, s);
      add_table(out, t.metbenchvar, kFourModes, s);
      add_table(out, t.btmz, kFourModes, s);
      add_table(out, t.siesta, kSiestaModes, s);
      break;
  }
  return out;
}

analysis::RunResult run_point(const Point& p, bool trace, const obs::ObsConfig& obs) {
  return std::visit(
      [&](const auto& e) -> analysis::RunResult {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, analysis::MetBenchExperiment>) {
          return analysis::run_metbench(e, p.mode, trace, p.seed, obs);
        } else if constexpr (std::is_same_v<E, analysis::MetBenchVarExperiment>) {
          return analysis::run_metbenchvar(e, p.mode, trace, p.seed, obs);
        } else if constexpr (std::is_same_v<E, analysis::BtMzExperiment>) {
          return analysis::run_btmz(e, p.mode, trace, p.seed, obs);
        } else {
          return analysis::run_siesta(e, p.mode, trace, p.seed, obs);
        }
      },
      p.exp);
}

analysis::ExperimentConfig point_config(const Point& p) {
  analysis::ExperimentConfig cfg = analysis::paper_defaults(p.mode, p.seed, false);
  std::visit(
      [&](const auto& e) {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, analysis::BtMzExperiment>) cfg.placement = {0, 2, 3, 1};
        if constexpr (!std::is_same_v<E, analysis::SiestaExperiment>) {
          if (p.mode == SchedMode::kStatic) cfg.static_prios = e.static_prios;
        }
      },
      p.exp);
  return cfg;
}

wl::ProgramSet point_programs(const Point& p) {
  return std::visit(
      [](const auto& e) -> wl::ProgramSet {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, analysis::MetBenchExperiment>) {
          return wl::make_metbench(e.workload);
        } else if constexpr (std::is_same_v<E, analysis::MetBenchVarExperiment>) {
          return wl::make_metbenchvar(e.workload);
        } else if constexpr (std::is_same_v<E, analysis::BtMzExperiment>) {
          return wl::make_btmz(e.workload);
        } else {
          return wl::make_siesta(e.workload);
        }
      },
      p.exp);
}

double paper_err_pp(const std::vector<Point>& points,
                    const std::vector<analysis::RunResult>& results) {
  std::map<std::string, std::size_t> baseline;  // table -> index of its Baseline point
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].mode == SchedMode::kBaselineCfs) baseline[table_of(points[i].exp)] = i;
  }
  double worst = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const auto b = baseline.find(table_of(p.exp));
    if (p.mode == SchedMode::kBaselineCfs || b == baseline.end()) continue;
    const double ref_base = reference(p.exp, SchedMode::kBaselineCfs).exec_time_s;
    const double ref_mode = reference(p.exp, p.mode).exec_time_s;
    if (ref_base <= 0.0 || ref_mode <= 0.0) continue;
    const double paper = 100.0 * (1.0 - ref_mode / ref_base);
    const double measured = analysis::improvement_pct(results[b->second], results[i]);
    worst = std::max(worst, std::fabs(measured - paper));
  }
  return worst;
}

}  // namespace pb
