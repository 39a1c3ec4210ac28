#include "simmpi/mpi_world.h"

#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"

namespace hpcs::mpi {
namespace {

/// Position of op type T among MpiOp's alternatives, for switching on
/// MpiOp::index().
template <typename T, std::size_t I = 0>
constexpr std::size_t op_index() {
  if constexpr (std::is_same_v<std::variant_alternative_t<I, MpiOp>, T>) {
    return I;
  } else {
    return op_index<T, I + 1>();
  }
}

bool spec_matches(int spec_src, int spec_tag, int src, int tag) {
  return (spec_src == kAnySource || spec_src == src) && (spec_tag == kAnyTag || spec_tag == tag);
}

/// The kernel-side body of one rank: forwards interaction points to the
/// world's interpreter.
class RankBody final : public kern::TaskBody {
 public:
  RankBody(MpiWorld& world, int rank) : world_(&world), rank_(rank) {}
  void step(kern::Kernel& k, kern::Task& t) override {
    (void)k;
    world_->step_rank(rank_, t);
  }

 private:
  MpiWorld* world_;
  int rank_;
};

}  // namespace

MpiWorld::MpiWorld(kern::Kernel& k, MpiWorldConfig cfg,
                   std::vector<std::unique_ptr<RankProgram>> programs)
    : kernel_(&k), cfg_(std::move(cfg)), net_(cfg_.net, Rng(cfg_.seed ^ 0xD1CEull)) {
  HPCS_CHECK_MSG(!programs.empty(), "an MPI world needs at least one rank");
  ranks_.resize(programs.size());
  for (std::size_t r = 0; r < programs.size(); ++r) {
    RankState& rs = ranks_[r];
    rs.program = std::move(programs[r]);
    const CpuId cpu = r < cfg_.placement.size() ? cfg_.placement[r]
                                                : static_cast<CpuId>(r) % k.num_cpus();
    rs.task = &k.create_task("rank" + std::to_string(r),
                             std::make_unique<RankBody>(*this, static_cast<int>(r)),
                             cfg_.policy, cpu);
    if (r < cfg_.static_hw_prio.size()) {
      k.request_hw_prio(*rs.task, p5::hw_prio_from_int(cfg_.static_hw_prio[r]));
    }
  }
}

std::size_t MpiWorld::check_rank(int rank) const {
  HPCS_CHECK(rank >= 0 && rank < size());
  return static_cast<std::size_t>(rank);
}

void MpiWorld::start() {
  for (auto& rs : ranks_) kernel_->start_task(*rs.task);
}

bool MpiWorld::try_consume(RankState& rs, int src, int tag) {
  for (auto it = rs.mailbox.begin(); it != rs.mailbox.end(); ++it) {
    if (spec_matches(src, tag, it->src, it->tag)) {
      rs.mailbox.erase(it);
      return true;
    }
  }
  return false;
}

bool MpiWorld::match_irecv(RankState& rs, const Message& m) {
  for (auto it = rs.pending_irecvs.begin(); it != rs.pending_irecvs.end(); ++it) {
    if (spec_matches(it->first, it->second, m.src, m.tag)) {
      rs.pending_irecvs.erase(it);
      return true;
    }
  }
  return false;
}

void MpiWorld::deliver(int dst, Message m) {
  RankState& rs = ranks_[check_rank(dst)];
  if (rs.exited) return;  // nobody will ever consume this message
  ++messages_;
  // Messages matching a posted irecv complete the request directly; others
  // sit in the mailbox for a (blocking or future non-blocking) receive.
  if (!match_irecv(rs, m)) rs.mailbox.push_back(m);
  // Wake the rank if this arrival may satisfy its wait; the body re-checks
  // its condition when stepped, so spurious wakeups are harmless.
  if (rs.waiting == WaitKind::kRecv || rs.waiting == WaitKind::kWaitAll) {
    kernel_->wake(*rs.task);
  }
}

void MpiWorld::arrive(RankState& rs, CollectiveState& c, std::int64_t bytes) {
  rs.waiting = c.kind;
  rs.collective_gen = c.generation + 1;
  ++c.waiting;
  maybe_release(c, bytes);
}

void MpiWorld::maybe_release(CollectiveState& c, std::int64_t bytes) {
  if (c.release_pending) return;
  if (c.waiting == 0 || c.waiting < size() - exited_) return;
  // Every live rank has arrived. A barrier releases after the notification
  // round-trip, an allreduce after a reduce phase and a broadcast phase over
  // a binary tree. The delay draws from the network's Rng, so only here.
  c.release_pending = true;
  const Duration delay = c.kind == WaitKind::kBarrier ? net_.delay(64) + net_.delay(64)
                                                      : tree_delay(bytes, 2);
  kernel_->sim().schedule_in(delay, [this, &c] {
    c.release_pending = false;
    c.waiting = 0;
    ++c.generation;
    wake_waiters(c.kind);
  });
}

Duration MpiWorld::tree_delay(std::int64_t bytes, int phases) {
  int live = size() - exited_;
  if (live < 2) live = 2;
  int levels = 0;
  for (int span = 1; span < live; span *= 2) ++levels;
  Duration total = Duration::zero();
  for (int p = 0; p < phases * levels; ++p) total += net_.delay(bytes);
  return std::max(total, Duration(1));
}

void MpiWorld::wake_waiters(WaitKind kind) {
  for (auto& rs : ranks_) {
    if (!rs.exited && rs.waiting == kind) kernel_->wake(*rs.task);
  }
}

void MpiWorld::step_rank(int rank, kern::Task& t) {
  RankState& rs = ranks_[check_rank(rank)];
  kern::Kernel& k = *kernel_;

  // Re-check a pending wait condition first (we may have been woken
  // spuriously or by the matching event).
  switch (rs.waiting) {
    case WaitKind::kBarrier:
    case WaitKind::kAllreduce:
      if (rs.collective_gen >
          (rs.waiting == WaitKind::kBarrier ? barrier_ : allreduce_).generation) {
        k.body_block(t);  // not released yet
        return;
      }
      rs.waiting = WaitKind::kNone;
      break;
    case WaitKind::kRecv:
      if (!try_consume(rs, rs.recv_src, rs.recv_tag)) {
        k.body_block(t);
        return;
      }
      rs.waiting = WaitKind::kNone;
      break;
    case WaitKind::kWaitAll:
      if (!rs.pending_irecvs.empty() || rs.pending_isends > 0) {
        k.body_block(t);
        return;
      }
      rs.waiting = WaitKind::kNone;
      break;
    case WaitKind::kNone:
      break;
  }

  // Interpret ops until one needs the kernel.
  for (;;) {
    MpiOp op = rs.program->next();
    switch (op.index()) {
      case op_index<OpCompute>(): {
        const Work work = std::get<OpCompute>(op).work;
        if (work <= 0.0) continue;  // empty segment: skip
        k.body_compute(t, work);
        return;
      }
      case op_index<OpBarrier>():
        // Every rank blocks, including the last arriver: the release is a
        // message round-trip (MetBench uses a master-coordinated barrier), so
        // even the slowest rank sleeps briefly — which is also what lets the
        // HPC scheduler observe an iteration boundary on every rank.
        arrive(rs, barrier_, /*bytes=*/0);
        k.body_block(t);
        return;
      case op_index<OpSend>(): {
        const auto& s = std::get<OpSend>(op);
        const int dst = s.dst;
        const Message m{rank, s.tag, s.bytes};
        kernel_->sim().schedule_in(net_.delay(s.bytes), [this, dst, m] { deliver(dst, m); });
        continue;
      }
      case op_index<OpRecv>(): {
        const auto& r = std::get<OpRecv>(op);
        if (try_consume(rs, r.src, r.tag)) continue;
        rs.waiting = WaitKind::kRecv;
        rs.recv_src = r.src;
        rs.recv_tag = r.tag;
        k.body_block(t);
        return;
      }
      case op_index<OpIsend>(): {
        // Unlike the eager OpSend, an isend is a tracked request: OpWaitAll
        // also waits for its delivery to complete (the rendezvous/progress
        // behaviour of large-message MPI sends).
        const auto& s = std::get<OpIsend>(op);
        const Message m{rank, s.tag, s.bytes};
        const int dst = s.dst;
        ++rs.pending_isends;
        kernel_->sim().schedule_in(net_.delay(s.bytes), [this, rank, dst, m] {
          RankState& sender = ranks_[check_rank(rank)];
          --sender.pending_isends;
          deliver(dst, m);
          if (!sender.exited && sender.waiting == WaitKind::kWaitAll) {
            kernel_->wake(*sender.task);
          }
        });
        continue;
      }
      case op_index<OpIrecv>(): {
        // If the message already arrived it is in the mailbox: consume it
        // now, otherwise post the request.
        const auto& r = std::get<OpIrecv>(op);
        if (!try_consume(rs, r.src, r.tag)) rs.pending_irecvs.emplace_back(r.src, r.tag);
        continue;
      }
      case op_index<OpWaitAll>():
        if (rs.pending_irecvs.empty() && rs.pending_isends == 0) continue;
        rs.waiting = WaitKind::kWaitAll;
        k.body_block(t);
        return;
      case op_index<OpAllreduce>():
        arrive(rs, allreduce_, std::get<OpAllreduce>(op).bytes);
        k.body_block(t);
        return;
      case op_index<OpMarkIteration>():
        k.flush_account(t);
        rs.marks.push_back(IterationMark{k.now(), t.t_run});
        continue;
      case op_index<OpExit>():
        rs.exited = true;
        ++exited_;
        finish_time_ = std::max(finish_time_, k.now());
        rs.mailbox.clear();  // unconsumed entries will never be received
        // Ranks sitting in a collective must not deadlock on an exited peer.
        maybe_release(barrier_, /*bytes=*/0);
        maybe_release(allreduce_, /*bytes=*/8);
        k.body_exit(t);
        return;
      default:
        HPCS_CHECK_MSG(false, "unhandled MPI op");
    }
  }
}

std::string MpiWorld::debug_state() const {
  std::string out;
  for (int r = 0; r < size(); ++r) {
    const RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const char* wait = "none";
    switch (rs.waiting) {
      case WaitKind::kNone: wait = "none"; break;
      case WaitKind::kBarrier: wait = "barrier"; break;
      case WaitKind::kRecv: wait = "recv"; break;
      case WaitKind::kWaitAll: wait = "waitall"; break;
      case WaitKind::kAllreduce: wait = "allreduce"; break;
    }
    out += "rank" + std::to_string(r) + ": " + (rs.exited ? "exited" : wait) +
           " mailbox=" + std::to_string(rs.mailbox.size()) +
           " irecvs=" + std::to_string(rs.pending_irecvs.size()) +
           " isends=" + std::to_string(rs.pending_isends) + "\n";
  }
  out += "barrier_waiting=" + std::to_string(barrier_.waiting) +
         " allreduce_waiting=" + std::to_string(allreduce_.waiting) + "\n";
  return out;
}

SimTime run_to_completion(sim::Simulator& s, MpiWorld& world, SimTime deadline) {
  while (!world.done() && s.step(deadline)) {
  }
  if (!world.done()) {
    std::fprintf(stderr, "MPI world stuck at t=%s:\n%s", format_time(s.now()).c_str(),
                 world.debug_state().c_str());
    HPCS_CHECK_MSG(world.done(), "simulation deadline reached before the MPI world completed");
  }
  return world.finish_time();
}

}  // namespace hpcs::mpi
