#pragma once
// A POWER5 chip: a set of SMT cores plus the CPU-id <-> (core, context)
// mapping the OS sees. The default topology matches the paper's evaluation
// machine (one dual-core chip, 2-way SMT: logical CPUs 0..3).

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "power5/smt_core.h"

namespace hpcs::p5 {

class Chip {
 public:
  explicit Chip(int num_cores = 2, const ThroughputParams& params = {});

  [[nodiscard]] int num_cores() const { return static_cast<int>(cores_.size()); }
  [[nodiscard]] int num_cpus() const { return num_cores() * 2; }

  [[nodiscard]] SmtCore& core(CoreId c) {
    HPCS_CHECK(c >= 0 && c < num_cores());
    return cores_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const SmtCore& core(CoreId c) const {
    HPCS_CHECK(c >= 0 && c < num_cores());
    return cores_[static_cast<std::size_t>(c)];
  }

  /// Logical-CPU view used by the simulated kernel.
  [[nodiscard]] static constexpr CoreId core_of(CpuId cpu) { return cpu / 2; }
  [[nodiscard]] static constexpr CtxId ctx_of(CpuId cpu) { return cpu % 2; }
  [[nodiscard]] static constexpr CpuId cpu_of(CoreId core, CtxId ctx) { return core * 2 + ctx; }
  /// The SMT sibling sharing a core with `cpu`.
  [[nodiscard]] static constexpr CpuId sibling_of(CpuId cpu) { return cpu ^ 1; }

  // The kernel calls these on every context switch, so they are inline.
  [[nodiscard]] double cpu_speed(CpuId cpu) const { return core(core_of(cpu)).speed(ctx_of(cpu)); }
  bool set_cpu_priority(CpuId cpu, HwPrio p);
  bool set_cpu_active(CpuId cpu, bool active) {
    return core(core_of(cpu)).set_active(ctx_of(cpu), active);
  }
  [[nodiscard]] HwPrio cpu_priority(CpuId cpu) const {
    return core(core_of(cpu)).priority(ctx_of(cpu));
  }

  /// Install one listener, called with `ctx`, for speed changes on any core.
  void set_listener(SmtCore::SpeedChangeListener fn, void* ctx);

 private:
  std::vector<SmtCore> cores_;
};

}  // namespace hpcs::p5
