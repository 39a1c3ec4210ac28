// Fixture self-tests for hpcslint (tools/hpcslint). Every rule is
// demonstrated three ways: firing on a violation, staying quiet on the
// conforming twin, and being suppressed by HPCSLINT-ALLOW. Fixtures are raw
// string literals — the lint blanks string contents before matching, so this
// file stays clean when hpcslint scans tests/ (the hpcslint_tree ctest).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hpcslint.h"

namespace {

using hpcslint::Finding;
using hpcslint::lint_source;
using hpcslint::SourceUnit;

// On-disk fixtures for the symbol-resolving rule families live in
// tests/fixtures/hpcslint (HPCSLINT_FIXTURE_DIR is set by tests/CMakeLists).
std::filesystem::path fixture_path(const std::string& name) {
  return std::filesystem::path(HPCSLINT_FIXTURE_DIR) / name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Finding> lint_fixture(const std::string& name) {
  return hpcslint::lint_file(fixture_path(name));
}

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const Finding& f : fs) out.push_back(f.rule);
  return out;
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(), [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// wallclock

TEST(HpcslintWallclock, FiresOnEachClockType) {
  const auto fs = lint_source("fx.cpp", R"fx(
#include <chrono>
auto a = std::chrono::system_clock::now();
auto b = std::chrono::steady_clock::now();
auto c = std::chrono::high_resolution_clock::now();
)fx");
  EXPECT_EQ(count_rule(fs, "wallclock"), 3);
  EXPECT_EQ(fs[0].line, 3);
}

TEST(HpcslintWallclock, QuietOnSimTimeAndStrings) {
  const auto fs = lint_source("fx.cpp", R"fx(
SimTime now = sim.now();
const char* doc = "steady_clock is banned";  // mention inside a comment: steady_clock
)fx");
  EXPECT_TRUE(fs.empty()) << fs.empty();
}

TEST(HpcslintWallclock, AllowSuppressesTrailingAndStandalone) {
  const auto fs = lint_source("fx.cpp", R"fx(
auto t0 = std::chrono::steady_clock::now();  // HPCSLINT-ALLOW(wallclock) bench harness
// HPCSLINT-ALLOW(wallclock)
auto t1 = std::chrono::steady_clock::now();
auto t2 = std::chrono::steady_clock::now();
)fx");
  EXPECT_EQ(count_rule(fs, "wallclock"), 1);  // only the unannotated read
  EXPECT_EQ(fs[0].line, 5);
}

// ---------------------------------------------------------------------------
// rand

TEST(HpcslintRand, FiresOnAmbientRandomness) {
  const auto fs = lint_source("fx.cpp", R"fx(
int a = rand();
srand(42);
std::random_device rd;
std::uint64_t seed = time(nullptr);
std::uint64_t seed2 = std::time(nullptr);
)fx");
  EXPECT_EQ(count_rule(fs, "rand"), 5);
}

TEST(HpcslintRand, QuietOnSeededRngAndMembers) {
  const auto fs = lint_source("fx.cpp", R"fx(
hpcs::Rng rng(cfg.seed);
double x = rng.uniform();
double s = r.exec_time.sec();
auto t = point.time(3);      // member named time: not the libc call
int randomize_count = 0;     // 'randomize_count' is its own identifier
)fx");
  EXPECT_TRUE(fs.empty());
}

TEST(HpcslintRand, AllowSuppresses) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::random_device rd;  // HPCSLINT-ALLOW(rand) entropy for the CLI demo only
)fx");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// unordered-iter

TEST(HpcslintUnorderedIter, FiresOnRangeForAndBegin) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::unordered_map<int, double> util_by_pid;
std::unordered_set<int> pids;
for (const auto& [pid, u] : util_by_pid) emit(pid, u);
auto it = pids.begin();
)fx");
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 2);
  EXPECT_EQ(fs[0].line, 4);
  EXPECT_EQ(fs[1].line, 5);
}

TEST(HpcslintUnorderedIter, QuietOnOrderedContainersAndLookup) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::map<int, double> util_by_pid;
std::unordered_map<int, double> cache;
for (const auto& [pid, u] : util_by_pid) emit(pid, u);  // ordered: fine
auto hit = cache.find(3);   // point lookup, not iteration
cache[7] = 1.0;
)fx");
  EXPECT_TRUE(fs.empty());
}

TEST(HpcslintUnorderedIter, AllowSuppresses) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::unordered_set<int> seen;
for (int pid : seen) count += pid;  // HPCSLINT-ALLOW(unordered-iter) order-insensitive sum
)fx");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// pointer-key

TEST(HpcslintPointerKey, FiresOnPointerKeyedContainersAndComparators) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::map<Task*, int> prio_by_task;
std::set<const Task*> blocked;
std::less<Task*> by_address;
)fx");
  EXPECT_EQ(count_rule(fs, "pointer-key"), 3);
}

TEST(HpcslintPointerKey, QuietOnValueKeysAndPointerValues) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::map<Pid, int> prio_by_pid;
std::map<int, Task*> task_by_pid;   // pointer as mapped value: fine
runner.map(points.size(), fn);      // member call named map
)fx");
  EXPECT_TRUE(fs.empty());
}

TEST(HpcslintPointerKey, AllowSuppresses) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::set<Task*> alive;  // HPCSLINT-ALLOW(pointer-key) membership only, never iterated
)fx");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// hot-alloc

TEST(HpcslintHotAlloc, FiresInsideHotRegionOnly) {
  const auto fs = lint_source("fx.cpp", R"fx(
auto cold = std::make_unique<Slot[]>(64);   // outside any region: fine
// HPCS_HOT_BEGIN
void dispatch() {
  auto* e = new Entry();
  auto s = std::make_unique<Slot>();
  std::function<void()> cb = [] {};
  std::vector<int> loads(n, 0);  std::string label = name;
  q.push(e);
}
// HPCS_HOT_END
auto cold2 = std::make_shared<Slot>();
)fx");
  EXPECT_EQ(count_rule(fs, "hot-alloc"), 5);
}

TEST(HpcslintHotAlloc, QuietOnNonAllocatingHotCode) {
  const auto fs = lint_source("fx.cpp", R"fx(
// HPCS_HOT_BEGIN
void heap_push(HeapEntry e) {
  heap_.push_back(e);          // amortized growth is accepted; no new/function
  InplaceFunction<void()> cb;  // the non-allocating wrapper is the point
  const std::vector<int>& loads = loads_; std::deque<Task*>* q = &q_; std::string::size_type n;
}
// HPCS_HOT_END
)fx");
  EXPECT_TRUE(fs.empty());
}

TEST(HpcslintHotAlloc, AllowSuppressesPlacementNew) {
  const auto fs = lint_source("fx.cpp", R"fx(
// HPCS_HOT_BEGIN
::new (buf) Fn(f);  // HPCSLINT-ALLOW(hot-alloc) placement new: no heap
::new (buf) Fn(g);
// HPCS_HOT_END
)fx");
  EXPECT_EQ(count_rule(fs, "hot-alloc"), 1);  // the un-annotated one still fires
}

// ---------------------------------------------------------------------------
// missing-override

TEST(HpcslintMissingOverride, FiresOnShadowedHook) {
  const auto fs = lint_source("fx.cpp", R"fx(
class BrokenClass final : public SchedClass {
 public:
  void enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) override;
  void dequeue(Kernel& k, Rq& rq, Task& t);   // oops: shadows, never called
  Task* pick_next(Kernel& k, Rq& rq) override;
};
)fx");
  ASSERT_EQ(count_rule(fs, "missing-override"), 1);
  EXPECT_EQ(fs[0].line, 5);
  EXPECT_NE(fs[0].message.find("dequeue"), std::string::npos);
}

TEST(HpcslintMissingOverride, QuietOnInterfaceAndUnrelatedClasses) {
  const auto fs = lint_source("fx.cpp", R"fx(
class SchedClass {
 public:
  virtual void enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) = 0;  // the interface itself
};
class Tracer {
 public:
  void enqueue(Event e);  // same hook name, unrelated class: fine
};
class GoodClass final : public kern::SchedClass {
 public:
  void enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) override {}
  void helper();  // non-hook member without override: fine
};
)fx");
  EXPECT_TRUE(fs.empty()) << rules_of(fs).size();
}

TEST(HpcslintMissingOverride, AllowSuppresses) {
  const auto fs = lint_source("fx.cpp", R"fx(
class Legacy final : public SchedClass {
 public:
  void yield(Kernel& k, Rq& rq, Task& t);  // HPCSLINT-ALLOW(missing-override)
};
)fx");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// Cross-cutting machinery

TEST(Hpcslint, FindingsAreSortedAndFormatted) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::random_device rd;
auto t = std::chrono::steady_clock::now();
)fx");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_LT(fs[0].line, fs[1].line);
  const std::string line = hpcslint::format_finding(fs[0]);
  EXPECT_EQ(line.rfind("fx.cpp:2: [rand]", 0), 0u) << line;
}

TEST(Hpcslint, AllowListAcceptsMultipleRules) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::uint64_t s = time(nullptr) ^ std::chrono::system_clock::now().time_since_epoch().count();  // HPCSLINT-ALLOW(rand, wallclock)
)fx");
  EXPECT_TRUE(fs.empty());
}

TEST(Hpcslint, RuleNamesAreStable) {
  const auto& names = hpcslint::rule_names();
  EXPECT_EQ(names.size(), 11u);
  EXPECT_NE(std::find(names.begin(), names.end(), "hot-alloc"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "tracepoint-name"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "det-taint"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lock-order"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lock-guard"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "shared-race"), names.end());
}

// ---------------------------------------------------------------------------
// tracepoint-name

TEST(HpcslintTracepointName, FiresOnRuntimeId) {
  const auto fs = lint_source("fx.cpp", R"fx(
void f(hpcs::obs::Recorder* rec, hpcs::obs::TpId id) {
  HPCS_TRACEPOINT(rec, id, now(), 0, 1, 2);
  HPCS_TRACEPOINT(rec, pick_tracepoint(), now(), 0, 1, 2);
  HPCS_TRACEPOINT(rec, static_cast<hpcs::obs::TpId>(3), now(), 0, 1, 2);
}
)fx");
  EXPECT_EQ(count_rule(fs, "tracepoint-name"), 3);
  EXPECT_EQ(fs[0].line, 3);
}

TEST(HpcslintTracepointName, QuietOnCatalogueConstants) {
  const auto fs = lint_source("fx.cpp", R"fx(
void f(hpcs::obs::Recorder* rec) {
  HPCS_TRACEPOINT(rec, obs::TpId::kTpSchedSwitch, now(), 0, 1, 2);
  HPCS_TRACEPOINT(rec, hpcs::obs::TpId::kTpWake, now(), 0, 1, 2);
  HPCS_TRACEPOINT(rec,
                  obs::TpId::kTpMigrate,
                  now(), 0, 1, 2);
}
)fx");
  EXPECT_TRUE(fs.empty());
}

TEST(HpcslintTracepointName, FiresOnTheCountSentinel) {
  // kTpCount is the catalogue size, not a tracepoint.
  const auto fs = lint_source("fx.cpp", R"fx(
void f(hpcs::obs::Recorder* rec) {
  HPCS_TRACEPOINT(rec, obs::TpId::kTpCount, now(), 0, 1, 2);
}
)fx");
  EXPECT_EQ(count_rule(fs, "tracepoint-name"), 1);
}

TEST(HpcslintTracepointName, SkipsTheMacroDefinitionItself) {
  const auto fs = lint_source("fx.cpp", R"fx(
#define HPCS_TRACEPOINT(rec, id, when, cpu, arg0, arg1) \
  do {                                                  \
  } while (0)
)fx");
  EXPECT_TRUE(fs.empty());
}

TEST(HpcslintTracepointName, AllowSuppresses) {
  const auto fs = lint_source("fx.cpp", R"fx(
void f(hpcs::obs::Recorder* rec, hpcs::obs::TpId id) {
  HPCS_TRACEPOINT(rec, id, now(), 0, 1, 2);  // HPCSLINT-ALLOW(tracepoint-name) generic shim
}
)fx");
  EXPECT_TRUE(fs.empty());
}

TEST(Hpcslint, BannedTokensInCommentsAndStringsNeverFire) {
  const auto fs = lint_source("fx.cpp", R"fx(
// steady_clock rand() std::unordered_map iteration new make_unique
const char* msg = "call time(nullptr) and srand(7)";
/* std::map<Task*, int> in a block comment */
)fx");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// lock-order (v2, on-disk fixtures)

TEST(HpcslintLockOrder, FiresOnAbbaCycle) {
  const auto fs = lint_fixture("lock_order_pos.cpp");
  ASSERT_EQ(count_rule(fs, "lock-order"), 1);
  const Finding& f = fs[0];
  EXPECT_EQ(f.line, 13);
  EXPECT_NE(f.message.find("TwoLocks::a_"), std::string::npos);
  EXPECT_NE(f.message.find("TwoLocks::b_"), std::string::npos);
  EXPECT_NE(f.message.find("lock_order_pos.cpp:17"), std::string::npos);
}

TEST(HpcslintLockOrder, QuietOnConsistentOrder) {
  EXPECT_TRUE(lint_fixture("lock_order_neg.cpp").empty());
}

TEST(HpcslintLockOrder, FiresOnSelfDeadlock) {
  const auto fs = lint_source("fx.cpp", R"fx(
struct Mutex {};
struct MutexLock { explicit MutexLock(Mutex& m); };
class C {
 public:
  void twice() {
    MutexLock l1(mu_);
    MutexLock l2(mu_);
  }
 private:
  Mutex mu_;
};
)fx");
  ASSERT_EQ(count_rule(fs, "lock-order"), 1);
  EXPECT_EQ(fs[0].line, 8);
  EXPECT_NE(fs[0].message.find("already held"), std::string::npos);
}

// ---------------------------------------------------------------------------
// lock-guard (v2, on-disk fixtures)

TEST(HpcslintLockGuard, FiresOnUnlockedWrite) {
  const auto fs = lint_fixture("lock_guard_pos.cpp");
  ASSERT_EQ(count_rule(fs, "lock-guard"), 1);
  EXPECT_EQ(fs[0].line, 15);
  EXPECT_NE(fs[0].message.find("Counter::hits_"), std::string::npos);
  EXPECT_NE(fs[0].message.find("mu_"), std::string::npos);
}

TEST(HpcslintLockGuard, QuietWhenLockedOrAnnotated) {
  EXPECT_TRUE(lint_fixture("lock_guard_neg.cpp").empty());
}

TEST(HpcslintLockGuard, WorksAcrossHeaderAndSource) {
  // Class (with GUARDED_BY field) in a header TU, offending method body in a
  // separate source TU: only the cross-TU link step can connect them.
  const std::vector<SourceUnit> units = {
      {"reg.h", R"fx(
struct Mutex {};
struct MutexLock { explicit MutexLock(Mutex& m); };
namespace hpcs::exp {
class Reg {
 public:
  void locked_bump();
  void unlocked_bump();
 private:
  Mutex mu_;
  long n_ GUARDED_BY(mu_) = 0;
};
}
)fx"},
      {"reg.cpp", R"fx(
#include "reg.h"
namespace hpcs::exp {
void Reg::locked_bump() {
  MutexLock l(mu_);
  ++n_;
}
void Reg::unlocked_bump() { ++n_; }
}
)fx"}};
  const auto fs = hpcslint::lint_units(units);
  ASSERT_EQ(count_rule(fs, "lock-guard"), 1);
  EXPECT_EQ(fs[0].file, "reg.cpp");
  EXPECT_EQ(fs[0].line, 8);
  EXPECT_NE(fs[0].message.find("hpcs::exp::Reg::n_"), std::string::npos);
}

// ---------------------------------------------------------------------------
// scoped container rules (v2, on-disk fixtures)

TEST(HpcslintScopedContainer, ResolvesMembersDeclaredAfterUse) {
  const auto fs = lint_fixture("scoped_container_pos.cpp");
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 2);
  EXPECT_EQ(count_rule(fs, "pointer-key"), 1);
  // The pointer-key finding is the *iteration*, not the (ALLOW'd) decl.
  for (const Finding& f : fs) {
    if (f.rule == "pointer-key") {
      EXPECT_EQ(f.line, 19);
      EXPECT_NE(f.message.find("Registry::by_task_"), std::string::npos);
    }
  }
}

TEST(HpcslintScopedContainer, QuietOnOrderedMembersAndShadowing) {
  EXPECT_TRUE(lint_fixture("scoped_container_neg.cpp").empty());
}

// ---------------------------------------------------------------------------
// det-taint (v2): whole-program taint propagation

TEST(HpcslintDetTaint, PropagatesAcrossTranslationUnits) {
  // Linting the entry TU alone: jitter_seed() is only a declaration, no
  // taint anywhere.
  const auto alone =
      hpcslint::lint_source("kernel/taint_entry.cpp", read_fixture("kernel/taint_entry.cpp"));
  EXPECT_EQ(count_rule(alone, "det-taint"), 0);

  // Linting both TUs as one program: the clock read in taint_source.cpp
  // taints jitter_seed, and the call edge carries it into scaled_tick.
  const std::vector<SourceUnit> units = {
      {"kernel/taint_source.cpp", read_fixture("kernel/taint_source.cpp")},
      {"kernel/taint_entry.cpp", read_fixture("kernel/taint_entry.cpp")},
  };
  const auto fs = hpcslint::lint_units(units);
  EXPECT_EQ(count_rule(fs, "det-taint"), 2);  // jitter_seed + scaled_tick, not pure_tick
  bool entry_flagged = false;
  for (const Finding& f : fs) {
    if (f.rule == "det-taint" && f.file == "kernel/taint_entry.cpp") {
      entry_flagged = true;
      EXPECT_NE(f.message.find("scaled_tick"), std::string::npos);
      EXPECT_NE(f.message.find("steady_clock"), std::string::npos);
      EXPECT_NE(f.message.find("jitter_seed"), std::string::npos);  // the path
    }
  }
  EXPECT_TRUE(entry_flagged);
}

TEST(HpcslintDetTaint, QuietOutsideProtectedScopes) {
  // Same shape, but in an unprotected namespace/path: only the wallclock
  // token rule fires, no taint findings.
  const auto fs = lint_source("util/timer.cpp", R"fx(
#include <chrono>
namespace hpcs::bench {
double seed() {
  return static_cast<double>(std::chrono::steady_clock::now().time_since_epoch().count());
}
double scaled() { return seed() * 2.0; }
}
)fx");
  EXPECT_EQ(count_rule(fs, "det-taint"), 0);
  EXPECT_EQ(count_rule(fs, "wallclock"), 1);
}

TEST(HpcslintDetTaint, AllowOnDefinitionSuppresses) {
  const auto fs = lint_source("kernel/tick.cpp", R"fx(
#include <chrono>
namespace hpcs::kern {
double seed() {  // HPCSLINT-ALLOW(det-taint) reviewed: wall-clock seed is intentional here
  return static_cast<double>(std::chrono::steady_clock::now().time_since_epoch().count());
}
}
)fx");
  EXPECT_EQ(count_rule(fs, "det-taint"), 0);
  EXPECT_EQ(count_rule(fs, "wallclock"), 1);  // the token rule still fires
}

// ---------------------------------------------------------------------------
// SARIF + baseline round-trip

TEST(HpcslintSarif, ReportContainsResultsAndFingerprints) {
  const auto fs = lint_fixture("lock_guard_pos.cpp");
  ASSERT_FALSE(fs.empty());
  const std::string sarif = hpcslint::sarif_report(fs);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"hpcslint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lock-guard\""), std::string::npos);
  EXPECT_NE(sarif.find("hpcslint/v2"), std::string::npos);
}

TEST(HpcslintSarif, BaselineRoundTripSuppressesExactlyTheOldFindings) {
  const auto fs = lint_fixture("scoped_container_pos.cpp");
  ASSERT_EQ(fs.size(), 3u);

  // Round-trip: emit SARIF, reload it as a baseline, filter — everything
  // baselined, nothing new.
  std::set<std::string> baseline;
  std::string error;
  ASSERT_TRUE(hpcslint::load_baseline(hpcslint::sarif_report(fs), baseline, error))
      << error;
  EXPECT_EQ(baseline.size(), 3u);
  EXPECT_TRUE(hpcslint::filter_baselined(fs, baseline).empty());

  // A finding that was not in the baseline survives the filter.
  auto grown = fs;
  grown.push_back(Finding{"new_file.cpp", 10, "wallclock", "wall-clock read"});
  const auto fresh = hpcslint::filter_baselined(grown, baseline);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].file, "new_file.cpp");
}

TEST(HpcslintSarif, FingerprintsIgnoreLinesButCountOccurrences) {
  const Finding a{"f.cpp", 10, "wallclock", "msg"};
  const Finding a_moved{"f.cpp", 99, "wallclock", "msg"};
  const auto one = hpcslint::fingerprints({a});
  const auto moved = hpcslint::fingerprints({a_moved});
  EXPECT_EQ(one[0], moved[0]);  // line drift does not invalidate a baseline

  const auto twice = hpcslint::fingerprints({a, a_moved});
  EXPECT_NE(twice[0], twice[1]);  // but a second occurrence is a new finding
}

TEST(HpcslintSarif, LoadBaselineRejectsMalformedJson) {
  std::set<std::string> baseline;
  std::string error;
  EXPECT_FALSE(hpcslint::load_baseline("{\"runs\": [", baseline, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(hpcslint::load_baseline("{\"version\": \"2.1.0\"}", baseline, error));
}

// ---------------------------------------------------------------------------
// det-taint through virtual dispatch (class-hierarchy analysis)

std::vector<SourceUnit> dispatch_units(const std::string& impl) {
  return {
      {"dispatch/virtual_base.cpp", read_fixture("dispatch/virtual_base.cpp")},
      {impl, read_fixture(impl)},
      {"dispatch/virtual_entry.cpp", read_fixture("dispatch/virtual_entry.cpp")},
  };
}

TEST(HpcslintVirtualDispatch, OverrideTaintReachesBaseCallSite) {
  // record() calls sink.emit() through the TraceSink base; the only tainted
  // body is the WallClockSink override in another TU and another namespace.
  const auto fs = hpcslint::lint_units(dispatch_units("dispatch/virtual_impl_pos.cpp"));
  ASSERT_EQ(count_rule(fs, "det-taint"), 1);
  for (const Finding& f : fs) {
    if (f.rule != "det-taint") continue;
    EXPECT_EQ(f.file, "dispatch/virtual_entry.cpp");
    EXPECT_NE(f.message.find("record"), std::string::npos);
    EXPECT_NE(f.message.find("WallClockSink"), std::string::npos) << f.message;
  }
}

TEST(HpcslintVirtualDispatch, CleanOverrideStaysQuiet) {
  const auto fs = hpcslint::lint_units(dispatch_units("dispatch/virtual_impl_neg.cpp"));
  EXPECT_EQ(count_rule(fs, "det-taint"), 0);
}

TEST(HpcslintVirtualDispatch, EntryAloneIsQuiet) {
  const auto fs = lint_fixture("dispatch/virtual_entry.cpp");
  EXPECT_EQ(count_rule(fs, "det-taint"), 0);
}

// ---------------------------------------------------------------------------
// det-taint through callbacks (value-flow into slots and dispatch arguments)

TEST(HpcslintCallbackFlow, FieldSlotCarriesTaintToInvoker) {
  // A clock-reading lambda assigned into a std::function field taints the
  // method that invokes the slot, even though it never names the lambda.
  const auto fs = lint_fixture("callback/field_pos.cpp");
  EXPECT_GE(count_rule(fs, "det-taint"), 1);
  bool fire_flagged = false;
  for (const Finding& f : fs) {
    if (f.rule == "det-taint" && f.message.find("fire") != std::string::npos) {
      fire_flagged = true;
    }
  }
  EXPECT_TRUE(fire_flagged);
}

TEST(HpcslintCallbackFlow, PureFieldSlotStaysQuiet) {
  EXPECT_EQ(count_rule(lint_fixture("callback/field_neg.cpp"), "det-taint"), 0);
}

TEST(HpcslintCallbackFlow, ArgumentBindCarriesTaintIntoDispatcher) {
  // A clock-reading lambda handed to Queue::schedule(InplaceFunction<...>)
  // taints the dispatcher: the callable runs inside it.
  const auto fs = lint_fixture("callback/arg_pos.cpp");
  bool schedule_flagged = false;
  for (const Finding& f : fs) {
    if (f.rule == "det-taint" && f.message.find("schedule") != std::string::npos) {
      schedule_flagged = true;
    }
  }
  EXPECT_TRUE(schedule_flagged);
}

TEST(HpcslintCallbackFlow, PureArgumentBindStaysQuiet) {
  EXPECT_EQ(count_rule(lint_fixture("callback/arg_neg.cpp"), "det-taint"), 0);
}

// ---------------------------------------------------------------------------
// det-taint through template members (template-aware resolution)

TEST(HpcslintTemplateMember, TaintFlowsThroughInstantiatedReceiver) {
  // poll() calls s.sample() on a Sampler<double>& — resolution must strip
  // the template argument list and land on the Sampler class template.
  const auto fs = lint_fixture("template/template_pos.cpp");
  bool poll_flagged = false;
  for (const Finding& f : fs) {
    if (f.rule == "det-taint" && f.message.find("poll") != std::string::npos) {
      poll_flagged = true;
    }
  }
  EXPECT_TRUE(poll_flagged);
}

TEST(HpcslintTemplateMember, PureTemplateStaysQuiet) {
  EXPECT_EQ(count_rule(lint_fixture("template/template_neg.cpp"), "det-taint"), 0);
}

// ---------------------------------------------------------------------------
// parallel lint determinism + path-portable fingerprints

TEST(HpcslintParallel, FindingsAreIdenticalToSerial) {
  const auto units = dispatch_units("dispatch/virtual_impl_pos.cpp");
  const auto serial = hpcslint::lint_units(units, 1);
  const auto parallel = hpcslint::lint_units(units, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].file, parallel[i].file);
    EXPECT_EQ(serial[i].line, parallel[i].line);
    EXPECT_EQ(serial[i].rule, parallel[i].rule);
    EXPECT_EQ(serial[i].message, parallel[i].message);
  }
}

TEST(HpcslintSarif, FingerprintsArePortableAcrossCheckoutRoots) {
  // The same finding recorded under two different checkout roots must hash
  // identically once the root is configured — including paths embedded in
  // the message (taint origins render "what at file:line").
  const Finding dev{"/home/dev/repo/src/kern/tick.cpp", 12, "det-taint",
                    "tainted via clock at /home/dev/repo/src/host/io.cpp:8"};
  const Finding ci{"/__w/repo/repo/src/kern/tick.cpp", 12, "det-taint",
                   "tainted via clock at /__w/repo/repo/src/host/io.cpp:8"};

  hpcslint::set_sarif_path_root("/home/dev/repo");
  const auto dev_fp = hpcslint::fingerprints({dev});
  EXPECT_EQ(hpcslint::sarif_relative_path(dev.file), "src/kern/tick.cpp");
  const std::string dev_sarif = hpcslint::sarif_report({dev});
  EXPECT_NE(dev_sarif.find("\"uri\": \"src/kern/tick.cpp\""), std::string::npos);
  EXPECT_EQ(dev_sarif.find("/home/dev/repo"), std::string::npos);

  hpcslint::set_sarif_path_root("/__w/repo/repo");
  const auto ci_fp = hpcslint::fingerprints({ci});
  EXPECT_EQ(dev_fp, ci_fp);

  hpcslint::set_sarif_path_root("");  // restore: other tests hash raw paths
  EXPECT_NE(hpcslint::fingerprints({dev}), ci_fp);
}

// ---------------------------------------------------------------------------
// shared-race (v4 lockset race detection)

TEST(HpcslintSharedRace, InconsistentLocksetAcrossTus) {
  // The guarded writer lives in the header TU, the bare reader in the source
  // TU: only whole-program linking can see that 1 of 2 accesses holds mu_.
  const std::vector<SourceUnit> units = {
      {"race/lockset_pos.h", read_fixture("race/lockset_pos.h")},
      {"race/lockset_pos.cpp", read_fixture("race/lockset_pos.cpp")},
  };
  const auto fs = hpcslint::lint_units(units);
  ASSERT_EQ(count_rule(fs, "shared-race"), 1);
  for (const Finding& f : fs) {
    if (f.rule != "shared-race") continue;
    EXPECT_EQ(f.file, "race/lockset_pos.cpp");
    EXPECT_NE(f.message.find("fx::Counter::hits_"), std::string::npos) << f.message;
    EXPECT_NE(f.message.find("GUARDED_BY(mu_)"), std::string::npos) << f.message;
  }
}

TEST(HpcslintSharedRace, UnguardedFieldsViaPoolAndStdThread) {
  // Tally::total_ (ThreadPool submission) and Gauge::level_ (std::thread
  // body): both classes own a mutex nobody takes — one finding per field.
  const auto fs = lint_fixture("race/pool_lambda_pos.cpp");
  EXPECT_EQ(count_rule(fs, "shared-race"), 2);
  bool total_flagged = false;
  bool level_flagged = false;
  for (const Finding& f : fs) {
    if (f.rule != "shared-race") continue;
    EXPECT_NE(f.message.find("GUARDED_BY(mu_)"), std::string::npos) << f.message;
    if (f.message.find("fx::Tally::total_") != std::string::npos) total_flagged = true;
    if (f.message.find("fx::Gauge::level_") != std::string::npos) level_flagged = true;
  }
  EXPECT_TRUE(total_flagged);
  EXPECT_TRUE(level_flagged);
}

TEST(HpcslintSharedRace, ConformingTwinsStayQuiet) {
  // Guarded (consistent lockset), External (no mutex: caller-synchronized),
  // Annotated (GUARDED_BY is lock-guard's jurisdiction) all stay quiet.
  const auto fs = lint_fixture("race/race_neg.cpp");
  EXPECT_EQ(count_rule(fs, "shared-race"), 0);
  // Regression: Annotated's unlocked lambda write still earns its lock-guard
  // finding, but its bare *read* of the GUARDED_BY field must not — reads
  // feed the race analysis, never the write-guard rule.
  EXPECT_EQ(count_rule(fs, "lock-guard"), 1);
}

// ---------------------------------------------------------------------------
// v4 parallel identity (race analysis) + SARIF round-trip

TEST(HpcslintParallel, RaceFindingsAreIdenticalToSerial) {
  const std::vector<SourceUnit> units = {
      {"race/lockset_pos.h", read_fixture("race/lockset_pos.h")},
      {"race/lockset_pos.cpp", read_fixture("race/lockset_pos.cpp")},
  };
  const auto serial = hpcslint::lint_units(units, 1);
  const auto parallel = hpcslint::lint_units(units, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].file, parallel[i].file);
    EXPECT_EQ(serial[i].line, parallel[i].line);
    EXPECT_EQ(serial[i].rule, parallel[i].rule);
    EXPECT_EQ(serial[i].message, parallel[i].message);
  }
}

TEST(HpcslintSarif, RoundTripCoversV4Rules) {
  const std::vector<Finding> fs = lint_fixture("race/pool_lambda_pos.cpp");
  ASSERT_GE(count_rule(fs, "shared-race"), 1);
  const std::string sarif = hpcslint::sarif_report(fs);
  EXPECT_NE(sarif.find("\"ruleId\": \"shared-race\""), std::string::npos);

  std::set<std::string> baseline;
  std::string error;
  ASSERT_TRUE(hpcslint::load_baseline(sarif, baseline, error)) << error;
  EXPECT_EQ(baseline.size(), fs.size());
  EXPECT_TRUE(hpcslint::filter_baselined(fs, baseline).empty());
}

// ---------------------------------------------------------------------------
// lexer: digit separators and raw strings (v4 token-desync regressions)

TEST(HpcslintLexer, DigitSeparatorsAndRawStringsDoNotDesync) {
  // The fixture is a minefield: 1'000'000, 0xFF'FF, u8'a', an identifier
  // ending in R followed by a plain string, and two raw strings (one with a
  // delimiter) whose *contents* mention rand()/srand()/steady_clock. A
  // desynced lexer either flags the prose or swallows the one real rand()
  // call at the end.
  const auto fs = lint_fixture("lexer/literals_pos.cpp");
  ASSERT_EQ(fs.size(), 1u) << (fs.empty() ? "" : fs[0].message);
  EXPECT_EQ(fs[0].rule, "rand");
  EXPECT_EQ(fs[0].line, 26);
}

}  // namespace
