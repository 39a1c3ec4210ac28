#pragma once
// hpcslint front end, stage 2 output: the per-translation-unit index.
//
// parse_tu() (parser.cpp) walks the token stream with a scope stack and
// produces this structure: every function definition with its call sites,
// direct nondeterminism sources, lock acquisitions and guarded-field writes;
// every class with its fields (container kinds, GUARDED_BY guards, bases);
// plus uses that could not be resolved inside the TU (a member container
// iterated in a .cpp whose class lives in a header) which the cross-TU link
// step (project.cpp) finishes.

#include <map>
#include <string>
#include <vector>

#include "hpcslint.h"
#include "lexer.h"

namespace hpcslint {

/// What kind of associative container a declaration introduced.
enum class ContainerKind : unsigned char {
  kNone,
  kOrdered,    ///< map/set/multimap/multiset
  kUnordered,  ///< unordered_ twins
};

/// One declared variable (local, parameter, member, or global) that the
/// container and dispatch rules care about.
struct VarInfo {
  std::string name;
  ContainerKind kind = ContainerKind::kNone;
  bool pointer_key = false;  ///< first template argument is a pointer type
  /// Declared type as a `::`-joined chain with template arguments stripped
  /// ("hpcs::kern::TraceSink" for `TraceSink* s`); "" when unknown. This is
  /// what lets the linker resolve `s->emit()` to the receiver's class.
  std::string type;
  bool is_callback = false;  ///< std::function / InplaceFunction / *Fn / *Callback
  bool is_thread = false;    ///< std::thread / jthread, or a thread container
  int line = 0;
};

/// A call expression `name(...)` inside a function body. `chain` keeps the
/// `::` qualification as written (e.g. {"exp","default_jobs"}); member calls
/// (`x.f()` / `x->f()`) set `member_access` and, when the receiver's declared
/// type is known in scope, `recv_type` — the hook for class-hierarchy
/// resolution of virtual dispatch.
struct CallSite {
  std::vector<std::string> chain;
  bool member_access = false;
  std::string recv_type;          ///< static type of the receiver ("" unknown)
  std::vector<std::string> held;  ///< mutexes held at the call site (raw names)
  int line = 0;
};

/// A callable value captured flowing into a callback slot: a lambda (or
/// `&`-taken function) assigned into an `InplaceFunction` / `std::function`
/// field or variable, or passed as a call argument. The link step turns these
/// into call-graph edges from the slot's invokers (and from callees with
/// callback-typed parameters) to the callable's body.
struct CallbackBind {
  enum class Kind : unsigned char {
    kField,  ///< `slot_ = <callable>` — target is the slot's field/var name
    kArg,    ///< `f(..., <callable>, ...)` — target is the called chain
  };
  Kind kind = Kind::kField;
  std::string target;         ///< field name, or `::`-joined callee chain
  std::string recv_type;      ///< declared type of `obj` in `obj.slot_ = ...`
  std::string callee;         ///< lambda qname, or `::`-joined function chain
  std::string encl_qname;     ///< function the bind occurs in (resolution context)
  std::string encl_class;     ///< its class ("" for free functions)
  /// Receiver identifier of the target call for kArg binds
  /// (`threads_.emplace_back(..)` → "threads_"); lets the linker decide
  /// thread-ness when the receiver is a field of a class merged from
  /// another TU.
  std::string recv_name;
  /// The callable crosses a thread boundary: it is the body of a
  /// `std::thread` construction or lands in a thread container
  /// (`threads_.emplace_back([..]{..})`). The race analysis treats it as a
  /// concurrency root.
  bool spawns_thread = false;
  int line = 0;
};

/// A direct nondeterminism source observed in a function body (wall clock,
/// ambient RNG, env read, hash-order iteration). Sources on lines carrying a
/// matching HPCSLINT-ALLOW are never recorded — an allowed source is a
/// reviewed exception and must not taint its callers.
struct TaintSource {
  std::string what;  ///< e.g. "steady_clock", "iteration over unordered 'm'"
  int line = 0;
};

/// `MutexLock l(a_)` acquired while `held` was already held: one edge of the
/// lock-order graph. Mutex names are normalized at link time (Class::field).
struct LockEdge {
  std::string held;
  std::string acquired;
  int line = 0;
};

/// An access to an identifier that did not resolve to a local variable
/// inside a member function — candidate field access, checked against the
/// merged class table at link time. Writes feed the lock-guard rule; both
/// reads and writes feed the shared-race lockset analysis.
struct PendingFieldWrite {
  std::string field;
  std::vector<std::string> held;  ///< mutexes held at the access (raw names)
  bool is_write = true;           ///< false: read-only use (race analysis only)
  int line = 0;
};

/// A container use (range-for / .begin() family) whose receiver did not
/// resolve to any declaration inside the TU; resolved against merged class
/// fields at link time.
struct PendingContainerUse {
  std::string name;
  bool range_for = false;  ///< false = explicit .begin()/.cbegin()/... call
  std::string via;         ///< "begin"/"cbegin"/... for the message
  int line = 0;
};

struct FuncInfo {
  std::string qname;        ///< fully scope-qualified, e.g. "hpcs::exp::ThreadPool::submit"
  std::string name;         ///< last segment
  std::string class_qname;  ///< owning class when a method ("" otherwise)
  int line = 0;
  bool has_body = false;
  bool in_protected_scope = false;  ///< enclosing namespace is a protected subsystem
  bool is_virtual = false;   ///< declared `virtual`, or marked override/final
  bool is_override = false;  ///< carries `override`/`final` in the head tail
  std::vector<VarInfo> params;  ///< parsed parameter list (types for dispatch)
  std::vector<std::string> requires_mutexes;  ///< REQUIRES(...) annotations
  std::vector<CallSite> calls;
  std::vector<TaintSource> taints;
  std::vector<LockEdge> lock_edges;
  std::vector<std::string> acquired;  ///< every mutex this function locks itself
  std::vector<PendingFieldWrite> pending_writes;
  std::vector<PendingContainerUse> pending_uses;
};

struct FieldInfo {
  std::string name;
  std::string guard;  ///< GUARDED_BY argument ("" = unguarded)
  ContainerKind container = ContainerKind::kNone;
  bool pointer_key = false;
  std::string type;          ///< declared type chain, template args stripped
  bool is_callback = false;  ///< std::function / InplaceFunction / *Fn / *Callback
  bool is_thread = false;    ///< std::thread / jthread, or a thread container
  int line = 0;
};

struct ClassInfo {
  std::string qname;
  int line = 0;
  std::vector<std::string> bases;
  std::map<std::string, FieldInfo> fields;
};

/// Everything stage 2 learned about one translation unit.
struct TuIndex {
  std::string file;  ///< label used in findings (path for on-disk files)
  Prepared prep;
  std::vector<Tok> toks;
  std::vector<FuncInfo> funcs;
  std::vector<ClassInfo> classes;
  std::vector<CallbackBind> binds;      ///< callable values flowing into slots
  std::vector<Finding> local_findings;  ///< findings fully resolved inside the TU
};

/// Namespace segments / path components that mark the deterministic core:
/// any function reachable from these subsystems must stay taint-free.
[[nodiscard]] bool is_protected_segment(std::string_view seg);
/// True when `file` (a path or label) contains a protected path component.
[[nodiscard]] bool is_protected_file(const std::string& file);

/// Parse one TU. `file` becomes Finding::file and decides path-based
/// protection for the taint rule.
[[nodiscard]] TuIndex parse_tu(const std::string& file, std::string_view source);

/// Cross-TU link step (project.cpp): merge classes and functions by
/// qualified name across all TUs, resolve pending container uses and
/// guarded-field writes against the merged class table, build the
/// lock-order graph and the taint closure, run the thread-root/lockset
/// race analysis, and append the resulting findings.
void link_program(std::vector<TuIndex>& tus, std::vector<Finding>& out);

}  // namespace hpcslint
