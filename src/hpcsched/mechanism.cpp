#include "hpcsched/mechanism.h"

#include <algorithm>

namespace hpcs::hpc {

bool Power5Mechanism::apply(kern::Kernel& k, kern::Task& t, int prio) {
  // The kernel runs at supervisor privilege: priorities 1..6 are legal
  // (Table II); clamp defensively.
  const int clamped = std::clamp(prio, 1, 6);
  k.request_hw_prio(t, p5::hw_prio_from_int(clamped));
  return true;
}

int Power5Mechanism::read(const kern::Task& t) const { return p5::to_int(t.hw_prio); }

}  // namespace hpcs::hpc
