#include "power5/chip.h"

#include <memory>

#include "common/check.h"

namespace hpcs::p5 {

Chip::Chip(int num_cores, const ThroughputParams& params) {
  HPCS_CHECK_MSG(num_cores > 0, "chip needs at least one core");
  const auto speeds = std::make_shared<const CoreSpeedTable>(params);
  cores_.reserve(static_cast<std::size_t>(num_cores));
  for (CoreId c = 0; c < num_cores; ++c) cores_.emplace_back(c, speeds);
}

bool Chip::set_cpu_priority(CpuId cpu, HwPrio p) {
  return core(core_of(cpu)).set_priority(ctx_of(cpu), p);
}

void Chip::set_listener(SmtCore::SpeedChangeListener fn, void* ctx) {
  for (auto& c : cores_) c.set_listener(fn, ctx);
}

}  // namespace hpcs::p5
