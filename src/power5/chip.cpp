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

SmtCore& Chip::core(CoreId c) {
  HPCS_CHECK(c >= 0 && c < num_cores());
  return cores_[static_cast<std::size_t>(c)];
}

const SmtCore& Chip::core(CoreId c) const {
  HPCS_CHECK(c >= 0 && c < num_cores());
  return cores_[static_cast<std::size_t>(c)];
}

double Chip::cpu_speed(CpuId cpu) const { return core(core_of(cpu)).speed(ctx_of(cpu)); }

bool Chip::set_cpu_priority(CpuId cpu, HwPrio p) {
  return core(core_of(cpu)).set_priority(ctx_of(cpu), p);
}

bool Chip::set_cpu_active(CpuId cpu, bool active) {
  return core(core_of(cpu)).set_active(ctx_of(cpu), active);
}

HwPrio Chip::cpu_priority(CpuId cpu) const { return core(core_of(cpu)).priority(ctx_of(cpu)); }

void Chip::set_listener(SmtCore::SpeedChangeListener l) {
  for (auto& c : cores_) c.set_listener(l);
}

}  // namespace hpcs::p5
