#pragma once
// The Mechanism component (paper §IV-C): the only architecture-dependent part
// of HPCSched. It knows how to apply a hardware priority to a task on the
// underlying machine. On non-POWER architectures the Null mechanism keeps the
// scheduler functional (the policy benefit remains) without any balancing
// effect.

#include "kernel/kernel.h"

namespace hpcs::hpc {

class Mechanism {
 public:
  virtual ~Mechanism() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Apply hardware priority `prio` (the Table II integer encoding) to the
  /// task. Returns false when the architecture does not support it.
  virtual bool apply(kern::Kernel& k, kern::Task& t, int prio) = 0;

  /// Read the task's current hardware priority, or -1 if unsupported.
  [[nodiscard]] virtual int read(const kern::Task& t) const = 0;
};

/// POWER5: priorities are set by the privileged or-nop interface; the kernel
/// (supervisor) may use 1..6 (Table II), and HPCSched further restricts
/// itself to [MIN_PRIO, MAX_PRIO].
class Power5Mechanism final : public Mechanism {
 public:
  [[nodiscard]] const char* name() const override { return "power5"; }
  bool apply(kern::Kernel& k, kern::Task& t, int prio) override;
  [[nodiscard]] int read(const kern::Task& t) const override;
};

/// Architecture without software-controlled SMT prioritization.
class NullMechanism final : public Mechanism {
 public:
  [[nodiscard]] const char* name() const override { return "null"; }
  bool apply(kern::Kernel&, kern::Task&, int) override { return false; }
  [[nodiscard]] int read(const kern::Task&) const override { return -1; }
};

}  // namespace hpcs::hpc
