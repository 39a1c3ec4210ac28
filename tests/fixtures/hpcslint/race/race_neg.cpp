// Conforming twins of the shared-race fixtures — no shared-race findings
// expected (Annotated::depth_ still earns its lock-guard finding; that is
// the point of the hand-off).
//  * Guarded: every access to count_ holds mu_ (lambda takes a MutexLock,
//    the reader runs under REQUIRES(mu_)), so the lockset is consistent.
//  * External: the class owns no mutex; its fields are synchronized by the
//    caller (the ParallelRunner pattern) and the rule must stay quiet even
//    though a pool lambda and the main context both touch seen_.
//  * Annotated: a GUARDED_BY field is the lock-guard rule's jurisdiction,
//    never shared-race's.
struct Mutex {};
struct MutexLock { explicit MutexLock(Mutex& m); };
struct ThreadPool {
  template <class F>
  void submit(F f);
};

namespace fx {

class Guarded {
 public:
  void start() {
    pool_.submit([this] {
      MutexLock l(mu_);
      count_ += 1;
    });
  }
  long read() REQUIRES(mu_) { return count_; }

 private:
  Mutex mu_;
  ThreadPool pool_;
  long count_ = 0;
};

class External {
 public:
  void start() {
    pool_.submit([this] { seen_ += 1; });
  }
  long read() { return seen_; }

 private:
  ThreadPool pool_;
  long seen_ = 0;
};

class Annotated {
 public:
  void start() {
    pool_.submit([this] { depth_ += 1; });
  }
  long read() { return depth_; }

 private:
  Mutex mu_;
  ThreadPool pool_;
  long depth_ GUARDED_BY(mu_) = 0;
};

}  // namespace fx
