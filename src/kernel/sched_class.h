#pragma once
// The scheduler framework of Linux >= 2.6.23 (paper §III): a Scheduler Core
// that treats Scheduling Classes as objects. Classes are chained in priority
// order — no task from a lower class runs while a higher class has runnable
// tasks. Each class brings its own run-queue data structure (ClassRq).

#include <concepts>
#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

#include "common/types.h"
#include "kernel/task.h"

namespace hpcs::kern {

class Kernel;

/// Per-CPU, per-class run-queue storage. Each SchedClass defines its own
/// concrete structure (priority arrays, red-black tree, round-robin list...).
class ClassRq {
 public:
  virtual ~ClassRq() = default;
};

/// Per-CPU run queue: the container the Scheduler Core works on.
struct Rq {
  CpuId cpu = 0;
  Task* curr = nullptr;   ///< task currently on this CPU (may be `idle`)
  Task* idle = nullptr;   ///< this CPU's idle task
  bool need_resched = false;
  std::vector<std::unique_ptr<ClassRq>> class_rqs;  ///< parallel to the class chain
  std::vector<int> class_count;                     ///< runnable per class (incl. running)

  [[nodiscard]] int total_runnable() const {
    return std::accumulate(class_count.begin(), class_count.end(), 0);
  }
};

/// A Scheduling Class. The Scheduler Core calls these methods for any
/// low-level operation (paper §III). All methods run on the (single-threaded)
/// simulation loop; `rq` is always the class's own CPU-local view.
class SchedClass {
 public:
  virtual ~SchedClass() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual bool owns(Policy p) const = 0;
  [[nodiscard]] virtual std::unique_ptr<ClassRq> make_rq() const = 0;

  /// Position in the class chain (0 = highest priority). Set by the Kernel.
  void set_index(int i) { index_ = i; }
  [[nodiscard]] int index() const { return index_; }

  /// Add a runnable task. `wakeup` is true when the task just woke from
  /// sleep (vs. being migrated or re-queued).
  virtual void enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) = 0;

  /// Remove a task. `sleep` is true when the task is blocking.
  virtual void dequeue(Kernel& k, Rq& rq, Task& t, bool sleep) = 0;

  /// Select the best task of this class and remove it from the class
  /// structure (it becomes `rq.curr`). Returns nullptr if the class has no
  /// queued task on this CPU. The Scheduler Core calls this only while
  /// `rq.class_count[index()] > 0`; that count includes a running task, so
  /// the class may still have nothing queued to pick.
  virtual Task* pick_next(Kernel& k, Rq& rq) = 0;

  /// Re-insert the previously running task (still runnable) into the class
  /// structure.
  virtual void put_prev(Kernel& k, Rq& rq, Task& t) = 0;

  /// Timer tick while `t` (of this class) is running. May set
  /// rq.need_resched.
  virtual void task_tick(Kernel& k, Rq& rq, Task& t) = 0;

  /// Should `woken` preempt `curr` (both of this class)?
  [[nodiscard]] virtual bool wakeup_preempt(Kernel& k, Rq& rq, Task& curr, Task& woken) = 0;

  /// Voluntary yield of the running task.
  virtual void yield(Kernel& k, Rq& rq, Task& t) { (void)k; (void)rq; (void)t; }

  /// Pick one migratable (queued, not running, not pinned elsewhere) task to
  /// move away from this rq, or nullptr. Used by the workload balancer, which
  /// skips the call when no other CPU has a queued task of this class.
  virtual Task* steal_candidate(Kernel& k, Rq& rq) { (void)k; (void)rq; return nullptr; }

  /// Whether the per-class workload balancer should run for this class.
  [[nodiscard]] virtual bool wants_balance() const { return false; }

  /// Fixed cost between a wakeup and the task becoming enqueued: the
  /// scheduler-path overhead of this class (run-queue insertion, placement,
  /// competition with the rest of the system). The paper's SIESTA result
  /// (§V-D) hinges on this being much smaller for SCHED_HPC than for CFS.
  [[nodiscard]] virtual Duration wakeup_cost() const { return Duration::microseconds(2); }

 private:
  int index_ = -1;
};

/// Compile-time contract for a concrete scheduling class: derives from
/// SchedClass, is instantiable (every pure-virtual hook overridden), and its
/// hooks carry the exact signatures the Scheduler Core calls — a stale
/// override that silently stopped overriding (e.g. after an interface
/// change) makes the class abstract or breaks a `requires` clause here, so
/// the mistake surfaces where the class is defined rather than as a subtly
/// mis-scheduled run. Pair with hpcslint's missing-override rule, which
/// catches hook declarations that compile but shadow instead of override.
template <typename T>
concept SchedClassImpl =
    std::derived_from<T, SchedClass> && !std::is_abstract_v<T> &&
    requires(T& c, const T& cc, Kernel& k, Rq& rq, Task& t) {
      { cc.name() } -> std::convertible_to<const char*>;
      { cc.owns(Policy{}) } -> std::same_as<bool>;
      { cc.make_rq() } -> std::same_as<std::unique_ptr<ClassRq>>;
      { c.enqueue(k, rq, t, true) } -> std::same_as<void>;
      { c.dequeue(k, rq, t, true) } -> std::same_as<void>;
      { c.pick_next(k, rq) } -> std::same_as<Task*>;
      { c.put_prev(k, rq, t) } -> std::same_as<void>;
      { c.task_tick(k, rq, t) } -> std::same_as<void>;
      { c.wakeup_preempt(k, rq, t, t) } -> std::same_as<bool>;
      { c.yield(k, rq, t) } -> std::same_as<void>;
      { c.steal_candidate(k, rq) } -> std::same_as<Task*>;
      { cc.wants_balance() } -> std::same_as<bool>;
      { cc.wakeup_cost() } -> std::same_as<Duration>;
    };

/// Place next to a concrete class definition (or in its .cpp) so interface
/// drift fails the build with the class named in the error.
#define HPCS_ASSERT_SCHED_CLASS(T)              \
  static_assert(::hpcs::kern::SchedClassImpl<T>, \
                #T " does not satisfy the SchedClass contract (kernel/sched_class.h)")

}  // namespace hpcs::kern
