#include "hpcsched/hpcsched.h"

#include <memory>

namespace hpcs::hpc {

HpcSchedClass& install_hpcsched(kern::Kernel& k, const HpcSchedConfig& cfg) {
  std::unique_ptr<Mechanism> mech;
  if (k.hw_prio_enabled()) {
    mech = std::make_unique<Power5Mechanism>();
  } else {
    mech = std::make_unique<NullMechanism>();
  }
  auto cls = std::make_unique<HpcSchedClass>(cfg.tunables, make_heuristic(cfg.heuristic),
                                             std::move(mech));
  return static_cast<HpcSchedClass&>(k.add_class_before_cfs(std::move(cls)));
}

}  // namespace hpcs::hpc
