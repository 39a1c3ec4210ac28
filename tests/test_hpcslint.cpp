// Fixture self-tests for hpcslint (tools/hpcslint). Every rule is
// demonstrated three ways: firing on a violation, staying quiet on the
// conforming twin, and being suppressed by HPCSLINT-ALLOW. Fixtures are raw
// string literals — the lint blanks string contents before matching, so this
// file stays clean when hpcslint scans tests/ (the hpcslint_tree ctest).

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hpcslint.h"

namespace {

using hpcslint::Finding;
using hpcslint::lint_source;

// On-disk fixtures live in tests/fixtures/hpcslint (HPCSLINT_FIXTURE_DIR is
// set by tests/CMakeLists).
std::vector<Finding> lint_fixture(const std::string& name) {
  return hpcslint::lint_file(std::filesystem::path(HPCSLINT_FIXTURE_DIR) / name);
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
// unordered

TEST(HpcslintUnordered, FiresOnEveryHashContainerDeclaration) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::unordered_map<int, double> util_by_pid;
std::unordered_set<int> pids;
std::unordered_multimap<int, int> edges;
std::unordered_multiset<int> seen;
std::map<int, double> ordered;   // ordered: fine
)fx");
  EXPECT_EQ(count_rule(fs, "unordered"), 4);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(HpcslintUnordered, AllowSuppresses) {
  const auto fs = lint_source("fx.cpp", R"fx(
std::unordered_set<int> seen;  // HPCSLINT-ALLOW(unordered) membership only, never iterated
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
  EXPECT_EQ(names.size(), 7u);
  EXPECT_NE(std::find(names.begin(), names.end(), "hot-alloc"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "tracepoint-name"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "unordered"), names.end());
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
