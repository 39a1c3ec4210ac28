#pragma once
// The MPI-like runtime: binds one RankProgram per rank to a simulated kernel
// task and interprets the op stream — compute segments, global barriers,
// eager point-to-point messages with a latency/bandwidth network model, and
// isend/irecv/waitall request tracking.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "kernel/kernel.h"
#include "simmpi/network.h"
#include "simmpi/ops.h"

namespace hpcs::mpi {

/// Recorded at every OpMarkIteration: when it happened and the rank's
/// cumulative CPU time, so per-iteration utilization can be derived.
struct IterationMark {
  SimTime when = SimTime::zero();
  Duration cpu_time = Duration::zero();

  bool operator==(const IterationMark&) const = default;
};

struct MpiWorldConfig {
  kern::Policy policy = kern::Policy::kNormal;
  /// rank -> initial CPU; empty = round-robin over the machine.
  std::vector<CpuId> placement;
  /// Optional static hardware priorities per rank (the hand-tuned approach
  /// of [5]); empty = default priority 4 for everyone.
  std::vector<int> static_hw_prio;
  NetworkParams net{};
  std::uint64_t seed = 1;
};

class MpiWorld {
 public:
  MpiWorld(kern::Kernel& k, MpiWorldConfig cfg,
           std::vector<std::unique_ptr<RankProgram>> programs);

  /// Wake every rank task (call after Kernel::start()).
  void start();

  [[nodiscard]] int size() const { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] bool done() const { return exited_ == size(); }
  [[nodiscard]] kern::Task& task(int rank) const { return *ranks_[check_rank(rank)].task; }
  /// Completion time of the whole application (max over rank exits).
  [[nodiscard]] SimTime finish_time() const { return finish_time_; }
  [[nodiscard]] const std::vector<IterationMark>& marks(int rank) const {
    return ranks_[check_rank(rank)].marks;
  }
  [[nodiscard]] std::int64_t messages_delivered() const { return messages_; }
  [[nodiscard]] std::int64_t barriers_completed() const { return barrier_.generation; }

  /// Diagnostic snapshot of every rank's wait state — printed when a run
  /// fails to complete, so deadlocks are debuggable from the abort message.
  [[nodiscard]] std::string debug_state() const;

  /// Interpreter entry point used by the per-rank task body; drives `rank`
  /// until an op requires the kernel (compute/block/exit). Not part of the
  /// user-facing API.
  void step_rank(int rank, kern::Task& t);

 private:

  struct Message {
    int src = 0;
    int tag = 0;
    std::int64_t bytes = 0;
  };

  enum class WaitKind {
    kNone,
    kBarrier,
    kRecv,
    kWaitAll,
    kAllreduce,
  };

  struct RankState {
    kern::Task* task = nullptr;
    std::unique_ptr<RankProgram> program;
    /// Arrived, unconsumed messages in arrival order. The paper's workloads
    /// keep at most a few here, so a vector beats a deque's erase.
    std::vector<Message> mailbox;
    std::vector<std::pair<int, int>> pending_irecvs;  ///< (src, tag) posted, unmatched
    int pending_isends = 0;  ///< isends whose delivery has not completed yet
    WaitKind waiting = WaitKind::kNone;
    int recv_src = kAnySource;
    int recv_tag = kAnyTag;
    std::int64_t collective_gen = 0;  ///< generation whose release ends its collective wait
    std::vector<IterationMark> marks;
    bool exited = false;
  };

  /// A barrier-like collective: every live rank arrives and blocks, and all
  /// of them are released together after a network delay.
  struct CollectiveState {
    WaitKind kind;  ///< what its waiting ranks wait on
    int waiting = 0;
    std::int64_t generation = 0;  ///< releases so far
    bool release_pending = false;
  };

  [[nodiscard]] std::size_t check_rank(int rank) const;

  /// True if a message matching (src, tag) is in the mailbox; consumes it.
  bool try_consume(RankState& rs, int src, int tag);
  /// Try to match the message against pending irecvs; returns true if used.
  bool match_irecv(RankState& rs, const Message& m);

  void deliver(int dst, Message m);
  /// `rs` joins `c` and waits for its next release.
  void arrive(RankState& rs, CollectiveState& c, std::int64_t bytes);
  /// Once every live rank waits on `c`, schedule their release after the
  /// collective's delay for `bytes` (a barrier ignores it).
  void maybe_release(CollectiveState& c, std::int64_t bytes);
  /// Tree-phase latency of a collective over the live ranks.
  [[nodiscard]] Duration tree_delay(std::int64_t bytes, int phases);
  void wake_waiters(WaitKind kind);

  kern::Kernel* kernel_;
  MpiWorldConfig cfg_;
  NetworkModel net_;
  std::vector<RankState> ranks_;
  CollectiveState barrier_{WaitKind::kBarrier};
  CollectiveState allreduce_{WaitKind::kAllreduce};
  int exited_ = 0;
  SimTime finish_time_ = SimTime::zero();
  std::int64_t messages_ = 0;
};

/// Run the simulator until the world completes. Only events at or before
/// `deadline` run: a world still incomplete then aborts the run (with every
/// rank's wait state on stderr). Returns the world's finish time.
SimTime run_to_completion(sim::Simulator& s, MpiWorld& world,
                          SimTime deadline = SimTime(std::int64_t{3600} * 1000000000));

}  // namespace hpcs::mpi
