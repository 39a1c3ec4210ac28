// hpcslint front end, stage 3: the cross-TU link step.
//
// Input: one TuIndex per file (parser.cpp). This file merges them into a
// whole-program view and runs the four rule families that need it:
//
//  det-taint   A function is *tainted* when its body touches a
//              nondeterminism source (wall clock, ambient RNG, env read,
//              hash-order iteration) or calls a tainted function. Taint
//              propagates callee→caller over the resolved call graph; any
//              tainted function belonging to the deterministic core
//              (simcore/kernel/power5/obs, by namespace or path) is an
//              error. ALLOW'd sources never taint — an allowed source is a
//              reviewed exception, not a leak.
//
//  lock-order  Every `MutexLock b(..)` executed while `a` is held is an
//              edge a→b; so is every acquisition a callee performs while
//              the caller holds a lock, and every acquisition inside a
//              REQUIRES(m) function (m→acquired). A cycle in this graph is
//              a potential deadlock. Mutex names are normalized to
//              Class::field when the field is found in the merged class
//              table, so `mu_` in two classes stays two nodes.
//
//  lock-guard  A write to a GUARDED_BY(g) field recorded by the parser
//              with no matching mutex in its held-set (locks in scope plus
//              the function's REQUIRES) is reported. This is the portable
//              subset of Clang's -Wthread-safety, which CI only gets on
//              one matrix leg.
//
//  shared-race A class field reached from ≥2 inferred thread contexts with
//              an empty or inconsistent lockset (roots, lockset propagation
//              and evidence gating are described at race_analysis below).
//
// Call resolution (v3) is qualified-name based with dispatch awareness:
// qualified chains resolve exact-first (then caller-namespace-prefixed,
// then whole-suffix over the name index); member calls with a known
// receiver type resolve through the class hierarchy — walking up base
// classes to the declaring method, then fanning out to every override in
// derived classes when the anchor is virtual. Callables bound into
// `InplaceFunction`/`std::function` slots (CallbackBind) become call-graph
// edges from the slot's invokers — and from callees with callback-typed
// parameters — to the callable's body, so taint flows through dispatch
// sites like `EventQueue::schedule`. Unqualified names still resolve
// same-class, then enclosing-namespace, then globally; a name matching
// more than kMaxCandidates symbols (or one from the std-noise list:
// push_back, size, find, ...) resolves to nothing rather than to
// everything.

#include "tu.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <unordered_set>
#include <utility>

namespace hpcslint {
namespace {

constexpr std::size_t kMaxCandidates = 8;

/// Member/free function names so common in std usage that resolving them
/// through the project symbol table would connect unrelated code.
bool is_noise_call(const std::string& name) {
  static const std::unordered_set<std::string_view> k = {
      "size",      "empty",       "begin",      "end",        "cbegin",
      "cend",      "rbegin",      "rend",       "push_back",  "emplace_back",
      "push_front", "emplace_front", "pop_back", "pop_front", "front",
      "back",      "clear",       "insert",     "erase",      "find",
      "count",     "at",          "reserve",    "resize",     "capacity",
      "get",       "reset",       "release",    "c_str",      "data",
      "str",       "substr",      "append",     "compare",    "load",
      "store",     "exchange",    "fetch_add",  "notify_all", "notify_one",
      "wait",      "wait_for",    "join",       "joinable",   "detach",
      "lock",      "unlock",      "try_lock",   "native",     "min",
      "max",       "move",        "forward",    "swap",       "to_string",
      "sort",      "stable_sort", "fill",       "copy",       "transform",
      "accumulate", "abs",        "floor",      "ceil",       "round",
      "sqrt",      "pow",         "exp",        "log",        "log2",
      "make_pair", "make_tuple",  "tie",        "emplace",    "assign",
      "push",      "pop",         "top",        "first",      "second",
      "printf",    "fprintf",     "snprintf",   "memcpy",     "memset",
      "memmove",   "strlen",      "strcmp",     "open",       "close",
      "good",      "fail",        "eof",        "rdbuf",      "write",
      "read",      "flush",       "value",      "has_value",  "push_heap",
      "pop_heap",  "lower_bound", "upper_bound"};
  return k.count(name) != 0;
}

/// Last field-ish segment of a mutex expression: "pool.mu_" → "mu_".
std::string mutex_tail(const std::string& m) {
  const std::size_t cut = m.find_last_of(".>:");
  return cut == std::string::npos ? m : m.substr(cut + 1);
}

std::string join_chain(const std::vector<std::string>& segs) {
  std::string out;
  for (const std::string& s : segs) {
    if (!out.empty()) out += "::";
    out += s;
  }
  return out;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Last `::` segment of a joined chain ("threads_::emplace_back" → the call).
std::string chain_tail(const std::string& joined) {
  const std::size_t cut = joined.rfind("::");
  return cut == std::string::npos ? joined : joined.substr(cut + 2);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Fields that *are* synchronization objects (or thread handles) are never
/// race-report candidates themselves: a mutex needs no GUARDED_BY.
bool is_sync_primitive_field(const FieldInfo& f) {
  if (f.is_thread) return true;
  const std::string tail = lower(chain_tail(f.type));
  return tail.find("mutex") != std::string::npos ||
         tail.find("condition_variable") != std::string::npos ||
         tail.find("condvar") != std::string::npos ||
         tail.find("atomic") != std::string::npos || tail == "thread" ||
         tail == "jthread";
}

/// A class-owned lockable member — evidence the class opted into internal
/// synchronization (and the GUARDED_BY suggestion target).
bool is_mutex_field(const FieldInfo& f) {
  return lower(chain_tail(f.type)).find("mutex") != std::string::npos;
}

struct OwnedTaint {
  std::string origin;  ///< "what at file:line" — pre-rendered for messages
};

struct OwnedLockEdge {
  std::string from, to;
  std::size_t tu = 0;
  int line = 0;
};

struct OwnedWrite {
  PendingFieldWrite w;
  std::size_t tu = 0;
};

struct OwnedUse {
  PendingContainerUse u;
  std::size_t tu = 0;
};

struct OwnedCall {
  CallSite cs;
  std::size_t tu = 0;
};

/// One merged symbol: every declaration and body sharing a qualified name
/// (overload sets collapse into one node — conservative and simple).
struct Node {
  std::string qname;
  std::string name;
  std::string class_qname;
  bool has_body = false;
  bool is_protected = false;
  bool is_virtual = false;  ///< virtual anywhere in the overload/decl set
  bool has_callback_param = false;  ///< takes a std::function/InplaceFunction
  std::size_t def_tu = 0;  ///< TU of the first body (finding attribution)
  int def_line = 0;
  std::vector<std::string> requires_m;
  std::vector<OwnedCall> calls;
  std::vector<OwnedTaint> taints;
  std::vector<OwnedLockEdge> lock_edges;  ///< normalized at build time
  std::vector<std::string> acquired;      ///< normalized
  std::vector<OwnedWrite> writes;
  std::vector<OwnedUse> uses;
};

class Linker {
 public:
  Linker(std::vector<TuIndex>& tus, std::vector<Finding>& out) : tus_(tus), out_(out) {}

  void run() {
    merge_classes();
    build_hierarchy();
    merge_functions();
    collect_binds();
    resolve_calls_all();
    resolve_pending_uses();   // may add taints — must precede the closure
    resolve_pending_writes();
    build_lock_graph();
    report_lock_cycles();
    taint_closure();
    report_det_taint();
    race_analysis();
  }

 private:
  std::vector<TuIndex>& tus_;
  std::vector<Finding>& out_;
  std::map<std::string, ClassInfo> classes_;
  std::map<std::string, Node> nodes_;
  std::map<std::string, std::vector<std::string>> by_name_;
  std::map<std::string, std::vector<std::string>> derived_;  ///< base → direct derived
  /// Slot key ("Class::field", or "func#name" for locals) → bound callables.
  std::map<std::string, std::vector<std::string>> slot_bindings_;
  /// "encl_qname|callee_chain" → callables passed as arguments to that call.
  std::map<std::string, std::vector<std::string>> arg_binds_;
  std::map<std::string, std::vector<std::string>> callees_;  ///< resolved edges
  std::map<std::string, std::vector<std::string>> callers_;  ///< reverse edges
  /// Direct resolved call edges with the lockset held at the site — the
  /// substrate of the interprocedural entry-lockset propagation. Callback
  /// dispatch edges are deliberately absent: a bound callable's entry
  /// lockset stays its REQUIRES set (conservative).
  struct HeldEdge {
    std::string caller, callee;
    std::set<std::string> held;  ///< normalized
  };
  std::vector<HeldEdge> held_edges_;
  std::map<std::string, std::map<std::string, OwnedLockEdge>> lock_adj_;
  std::map<std::string, std::set<std::string>> closure_memo_;
  std::set<std::string> closure_busy_;

  void report(const char* rule, std::size_t tu, int line, std::string msg) {
    if (tus_[tu].prep.allowed(rule, line)) return;
    out_.push_back(Finding{tus_[tu].file, line, rule, std::move(msg)});
  }

  void merge_classes() {
    for (TuIndex& tu : tus_) {
      for (ClassInfo& c : tu.classes) {
        ClassInfo& m = classes_[c.qname];
        if (m.qname.empty()) {
          m.qname = c.qname;
          m.line = c.line;
        }
        for (const std::string& b : c.bases) m.bases.push_back(b);
        for (auto& [name, f] : c.fields) {
          FieldInfo& mf = m.fields[name];
          if (mf.name.empty()) mf = f;
          if (mf.guard.empty()) mf.guard = f.guard;
          if (mf.container == ContainerKind::kNone) {
            mf.container = f.container;
            mf.pointer_key = f.pointer_key;
          }
          if (mf.type.empty()) mf.type = f.type;
          mf.is_callback = mf.is_callback || f.is_callback;
          mf.is_thread = mf.is_thread || f.is_thread;
        }
      }
    }
  }

  /// Resolve a type name as written (`TraceSink`, `kern::TraceSink`) to a
  /// merged class qname: exact, then prefixed with each enclosing namespace
  /// of `context` (innermost first), then unique whole-suffix match.
  std::string resolve_class(const std::string& name, const std::string& context) {
    if (name.empty()) return {};
    if (classes_.count(name) != 0) return name;
    std::string ns = context;
    std::size_t cut;
    while ((cut = ns.rfind("::")) != std::string::npos) {
      ns.resize(cut);
      const std::string q = ns + "::" + name;
      if (classes_.count(q) != 0) return q;
    }
    std::string hit;
    const std::string suffix = "::" + name;
    for (const auto& [q, c] : classes_) {
      if (ends_with(q, suffix)) {
        if (!hit.empty()) return {};  // ambiguous — resolve to nothing
        hit = q;
      }
    }
    return hit;
  }

  void build_hierarchy() {
    for (const auto& [q, c] : classes_) {
      const std::size_t cut = q.rfind("::");
      const std::string ns = cut == std::string::npos ? std::string() : q.substr(0, cut);
      for (const std::string& b : c.bases) {
        const std::string bq = resolve_class(b, ns);
        if (!bq.empty() && bq != q) derived_[bq].push_back(q);
      }
    }
  }

  /// Every class transitively derived from `base`.
  std::vector<std::string> derived_closure(const std::string& base) {
    std::vector<std::string> out;
    std::set<std::string> seen{base};
    std::deque<std::string> work{base};
    while (!work.empty()) {
      const std::string cur = std::move(work.front());
      work.pop_front();
      const auto it = derived_.find(cur);
      if (it == derived_.end()) continue;
      for (const std::string& d : it->second) {
        if (seen.insert(d).second) {
          out.push_back(d);
          work.push_back(d);
        }
      }
    }
    return out;
  }

  /// Find the node for method `name` starting at `cls` and walking up base
  /// classes — the static-dispatch anchor for a receiver of type `cls`.
  std::string find_method(const std::string& cls, const std::string& name,
                          std::set<std::string>& seen) {
    if (!seen.insert(cls).second) return {};
    const std::string q = cls + "::" + name;
    if (nodes_.count(q) != 0) return q;
    const auto c = classes_.find(cls);
    if (c == classes_.end()) return {};
    const std::size_t cut = cls.rfind("::");
    const std::string ns = cut == std::string::npos ? std::string() : cls.substr(0, cut);
    for (const std::string& b : c->second.bases) {
      const std::string bq = resolve_class(b, ns);
      if (bq.empty()) continue;
      const std::string r = find_method(bq, name, seen);
      if (!r.empty()) return r;
    }
    return {};
  }

  /// Add every override of `name` reachable through classes derived from
  /// `cls` — the dynamic-dispatch fan-out for a virtual anchor.
  void fan_out(const std::string& cls, const std::string& name,
               std::vector<std::string>& out) {
    for (const std::string& d : derived_closure(cls)) {
      const std::string q = d + "::" + name;
      if (nodes_.count(q) != 0 &&
          std::find(out.begin(), out.end(), q) == out.end()) {
        out.push_back(q);
      }
    }
  }

  /// `mu_` → `Class::mu_` when the class (of the function that names it)
  /// really has that field; otherwise the bare tail.
  std::string normalize_mutex(const std::string& raw, const std::string& class_qname) {
    const std::string tail = mutex_tail(raw);
    const auto c = classes_.find(class_qname);
    if (c != classes_.end() && c->second.fields.count(tail) != 0) {
      return class_qname + "::" + tail;
    }
    return tail;
  }

  void merge_functions() {
    for (std::size_t ti = 0; ti < tus_.size(); ++ti) {
      TuIndex& tu = tus_[ti];
      for (FuncInfo& f : tu.funcs) {
        Node& n = nodes_[f.qname];
        if (n.qname.empty()) {
          n.qname = f.qname;
          n.name = f.name;
          n.class_qname = f.class_qname;
        }
        if (n.class_qname.empty()) n.class_qname = f.class_qname;
        n.is_protected = n.is_protected || f.in_protected_scope;
        n.is_virtual = n.is_virtual || f.is_virtual || f.is_override;
        for (const VarInfo& p : f.params) {
          if (p.is_callback) n.has_callback_param = true;
        }
        for (const std::string& r : f.requires_mutexes) n.requires_m.push_back(r);
        if (f.has_body && !n.has_body) {
          n.has_body = true;
          n.def_tu = ti;
          n.def_line = f.line;
        }
        if (!f.has_body) continue;
        for (CallSite& cs : f.calls) n.calls.push_back(OwnedCall{std::move(cs), ti});
        for (const TaintSource& t : f.taints) {
          n.taints.push_back(
              OwnedTaint{t.what + " at " + tu.file + ":" + std::to_string(t.line)});
        }
        for (const LockEdge& e : f.lock_edges) {
          n.lock_edges.push_back(OwnedLockEdge{
              normalize_mutex(e.held, f.class_qname),
              normalize_mutex(e.acquired, f.class_qname), ti, e.line});
        }
        for (const std::string& a : f.acquired) {
          n.acquired.push_back(normalize_mutex(a, f.class_qname));
        }
        for (PendingFieldWrite& w : f.pending_writes) {
          n.writes.push_back(OwnedWrite{std::move(w), ti});
        }
        for (PendingContainerUse& u : f.pending_uses) {
          n.uses.push_back(OwnedUse{std::move(u), ti});
        }
      }
    }
    for (const auto& [q, n] : nodes_) by_name_[n.name].push_back(q);
  }

  /// Resolve the callable side of a bind: lambdas are exact synthetic qnames;
  /// `&Class::method` / `&free_fn` chains resolve enclosing-context-first,
  /// then by unique-enough suffix.
  std::vector<std::string> resolve_callable(const CallbackBind& b) {
    if (nodes_.count(b.callee) != 0) return {b.callee};
    if (!b.encl_class.empty() && nodes_.count(b.encl_class + "::" + b.callee) != 0) {
      return {b.encl_class + "::" + b.callee};
    }
    std::string ns = b.encl_qname;
    std::size_t cut;
    while ((cut = ns.rfind("::")) != std::string::npos) {
      ns.resize(cut);
      if (nodes_.count(ns + "::" + b.callee) != 0) return {ns + "::" + b.callee};
    }
    const std::size_t tail = b.callee.rfind("::");
    const std::string last =
        tail == std::string::npos ? b.callee : b.callee.substr(tail + 2);
    std::vector<std::string> out;
    const auto it = by_name_.find(last);
    if (it != by_name_.end()) {
      const std::string suffix = "::" + b.callee;
      for (const std::string& q : it->second) {
        if (q == b.callee || ends_with(q, suffix)) {
          out.push_back(q);
          if (out.size() > kMaxCandidates) return {};
        }
      }
    }
    return out;
  }

  /// Walk the hierarchy from `cls` to the class declaring callback field
  /// `field`; "" when no base declares it as a callback slot.
  std::string slot_declaring_key(const std::string& cls, const std::string& field,
                                 std::set<std::string>& seen) {
    if (!seen.insert(cls).second) return {};
    const auto c = classes_.find(cls);
    if (c == classes_.end()) return {};
    const auto f = c->second.fields.find(field);
    if (f != c->second.fields.end() && f->second.is_callback) {
      return cls + "::" + field;
    }
    const std::size_t cut = cls.rfind("::");
    const std::string ns = cut == std::string::npos ? std::string() : cls.substr(0, cut);
    for (const std::string& b : c->second.bases) {
      const std::string bq = resolve_class(b, ns);
      if (bq.empty()) continue;
      const std::string r = slot_declaring_key(bq, field, seen);
      if (!r.empty()) return r;
    }
    return {};
  }

  std::string slot_key(const std::string& cls, const std::string& field) {
    std::set<std::string> seen;
    return slot_declaring_key(cls, field, seen);
  }

  void collect_binds() {
    for (const TuIndex& tu : tus_) {
      for (const CallbackBind& b : tu.binds) {
        std::vector<std::string> callables = resolve_callable(b);
        if (callables.empty()) continue;
        if (b.kind == CallbackBind::Kind::kArg) {
          auto& slot = arg_binds_[b.encl_qname + "|" + b.target];
          slot.insert(slot.end(), callables.begin(), callables.end());
          continue;
        }
        std::string key;
        if (!b.recv_type.empty()) {
          const std::string cq = resolve_class(b.recv_type, b.encl_qname);
          if (!cq.empty()) key = slot_key(cq, b.target);
        }
        if (key.empty() && !b.encl_class.empty()) {
          key = slot_key(b.encl_class, b.target);
        }
        // Local callback variables bind and dispatch within one function.
        if (key.empty()) key = b.encl_qname + "#" + b.target;
        auto& slot = slot_bindings_[key];
        slot.insert(slot.end(), callables.begin(), callables.end());
      }
    }
  }

  std::vector<std::string> resolve_call(const Node& caller, const CallSite& cs) {
    if (cs.chain.empty()) return {};
    const std::string& last = cs.chain.back();
    if (is_noise_call(last)) return {};
    if (cs.chain.size() > 1) {
      // Qualified: exact qname first, then the caller's enclosing namespaces
      // prefixed (innermost first), then whole-suffix over the name index.
      // Explicit qualification never fans out — `Base::f()` means Base::f.
      const std::string joined = join_chain(cs.chain);
      if (nodes_.count(joined) != 0) return {joined};
      std::string ns = caller.qname;
      std::size_t cut;
      while ((cut = ns.rfind("::")) != std::string::npos) {
        ns.resize(cut);
        const std::string q = ns + "::" + joined;
        if (nodes_.count(q) != 0) return {q};
      }
      std::vector<std::string> out;
      const auto it = by_name_.find(last);
      if (it != by_name_.end()) {
        const std::string suffix = "::" + joined;
        for (const std::string& q : it->second) {
          if (ends_with(q, suffix)) {
            out.push_back(q);
            if (out.size() > kMaxCandidates) return {};
          }
        }
      }
      return out;
    }
    // Member call with a known receiver type: hierarchy-aware. Anchor on the
    // declaring method (walking up bases), fan out to derived overrides when
    // the anchor is virtual.
    if (cs.member_access && !cs.recv_type.empty()) {
      const std::string cls = resolve_class(cs.recv_type, caller.qname);
      if (!cls.empty()) {
        std::set<std::string> seen;
        const std::string anchor = find_method(cls, last, seen);
        if (!anchor.empty()) {
          std::vector<std::string> out{anchor};
          const auto a = nodes_.find(anchor);
          if (a != nodes_.end() && a->second.is_virtual) fan_out(cls, last, out);
          return out;
        }
      }
    }
    // Unqualified: same class wins outright (with virtual fan-out — an
    // unqualified `f()` in a method dispatches dynamically on `this`)…
    if (!caller.class_qname.empty()) {
      const std::string q = caller.class_qname + "::" + last;
      const auto it = nodes_.find(q);
      if (it != nodes_.end()) {
        std::vector<std::string> out{q};
        if (it->second.is_virtual) fan_out(caller.class_qname, last, out);
        return out;
      }
    }
    if (!cs.member_access) {
      // …then the enclosing namespaces, innermost first…
      std::string ns = caller.qname;
      std::size_t cut;
      while ((cut = ns.rfind("::")) != std::string::npos) {
        ns.resize(cut);
        const std::string q = ns + "::" + last;
        if (nodes_.count(q) != 0) return {q};
      }
      if (nodes_.count(last) != 0) return {last};
    }
    // …then any symbol with the name, if the set is small enough to trust.
    const auto it = by_name_.find(last);
    if (it != by_name_.end() && it->second.size() <= kMaxCandidates) return it->second;
    return {};
  }

  /// Call-graph edges a call site contributes through callback slots: a call
  /// of a bound `std::function`/`InplaceFunction` field (or local) executes
  /// every callable ever bound into that slot.
  std::vector<std::string> callback_targets(const Node& caller, const CallSite& cs) {
    if (cs.chain.size() != 1) return {};
    const std::string& nm = cs.chain[0];
    std::vector<std::string> keys;
    if (cs.member_access && !cs.recv_type.empty()) {
      const std::string cq = resolve_class(cs.recv_type, caller.qname);
      if (!cq.empty()) {
        const std::string k = slot_key(cq, nm);
        if (!k.empty()) keys.push_back(k);
      }
    }
    if (!caller.class_qname.empty()) {
      const std::string k = slot_key(caller.class_qname, nm);
      if (!k.empty()) keys.push_back(k);
    }
    keys.push_back(caller.qname + "#" + nm);  // local callback variable
    std::vector<std::string> out;
    for (const std::string& k : keys) {
      const auto it = slot_bindings_.find(k);
      if (it == slot_bindings_.end()) continue;
      for (const std::string& c : it->second) {
        if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
      }
    }
    return out;
  }

  void add_edge(const std::string& from, const std::string& to,
                std::set<std::string>& seen) {
    if (to != from && seen.insert(from + "|" + to).second) {
      callees_[from].push_back(to);
      callers_[to].push_back(from);
    }
  }

  void resolve_calls_all() {
    std::set<std::string> seen;
    for (const auto& [q, n] : nodes_) {
      for (const OwnedCall& oc : n.calls) {
        const std::vector<std::string> resolved = resolve_call(n, oc.cs);
        for (const std::string& callee : resolved) {
          add_edge(q, callee, seen);
          HeldEdge he{q, callee, {}};
          for (const std::string& h : oc.cs.held) {
            he.held.insert(normalize_mutex(h, n.class_qname));
          }
          held_edges_.push_back(std::move(he));
        }
        for (const std::string& cb : callback_targets(n, oc.cs)) {
          add_edge(q, cb, seen);
        }
        // A callable passed as an argument runs inside the callee when the
        // callee takes a callback parameter (dispatch sites like
        // EventQueue::schedule): edge callee → callable.
        const auto ab = arg_binds_.find(q + "|" + join_chain(oc.cs.chain));
        if (ab != arg_binds_.end()) {
          for (const std::string& callee : resolved) {
            const auto cn = nodes_.find(callee);
            if (cn == nodes_.end() || !cn->second.has_callback_param) continue;
            for (const std::string& cb : ab->second) add_edge(callee, cb, seen);
          }
        }
      }
    }
  }

  void resolve_pending_uses() {
    for (auto& [q, n] : nodes_) {
      const auto c = classes_.find(n.class_qname);
      if (c == classes_.end()) continue;
      for (const OwnedUse& ou : n.uses) {
        const auto f = c->second.fields.find(ou.u.name);
        if (f == c->second.fields.end()) continue;
        const FieldInfo& fi = f->second;
        const std::string shown = n.class_qname + "::" + ou.u.name;
        if (fi.container == ContainerKind::kUnordered) {
          if (ou.u.range_for) {
            report("unordered-iter", ou.tu, ou.u.line,
                   "range-for over unordered container '" + shown +
                       "': hash order is not deterministic; copy into a sorted "
                       "container first");
          } else {
            report("unordered-iter", ou.tu, ou.u.line,
                   "iteration over unordered container '" + shown + "' via ." +
                       ou.u.via + "(): hash order is not deterministic");
          }
          if (!tus_[ou.tu].prep.allowed("unordered-iter", ou.u.line) &&
              !tus_[ou.tu].prep.allowed("det-taint", ou.u.line)) {
            n.taints.push_back(OwnedTaint{"iteration over unordered '" + shown +
                                          "' at " + tus_[ou.tu].file + ":" +
                                          std::to_string(ou.u.line)});
          }
        } else if (fi.container == ContainerKind::kOrdered && fi.pointer_key) {
          report("pointer-key", ou.tu, ou.u.line,
                 "iteration over pointer-keyed container '" + shown +
                     "': traversal follows allocation addresses; key by a stable "
                     "id instead");
        }
      }
    }
  }

  void resolve_pending_writes() {
    for (const auto& [q, n] : nodes_) {
      const auto c = classes_.find(n.class_qname);
      if (c == classes_.end()) continue;
      for (const OwnedWrite& ow : n.writes) {
        if (!ow.w.is_write) continue;  // reads feed the race analysis only
        const auto f = c->second.fields.find(ow.w.field);
        if (f == c->second.fields.end() || f->second.guard.empty()) continue;
        const std::string want = mutex_tail(f->second.guard);
        bool held = false;
        for (const std::string& h : ow.w.held) {
          if (mutex_tail(h) == want) {
            held = true;
            break;
          }
        }
        if (held) continue;
        report("lock-guard", ow.tu, ow.w.line,
               "write to '" + n.class_qname + "::" + ow.w.field + "' (GUARDED_BY(" +
                   f->second.guard + ")) without holding '" + f->second.guard +
                   "': take a MutexLock or annotate the function REQUIRES(" +
                   f->second.guard + ")");
      }
    }
  }

  /// Every mutex `q` may acquire, directly or through resolved callees.
  const std::set<std::string>& acquisition_closure(const std::string& q) {
    const auto memo = closure_memo_.find(q);
    if (memo != closure_memo_.end()) return memo->second;
    if (closure_busy_.count(q) != 0) {
      static const std::set<std::string> kEmpty;
      return kEmpty;  // recursion: the cycle's locks surface via its members
    }
    closure_busy_.insert(q);
    std::set<std::string> acc;
    const auto n = nodes_.find(q);
    if (n != nodes_.end()) {
      acc.insert(n->second.acquired.begin(), n->second.acquired.end());
      const auto ce = callees_.find(q);
      if (ce != callees_.end()) {
        for (const std::string& callee : ce->second) {
          const std::set<std::string>& sub = acquisition_closure(callee);
          acc.insert(sub.begin(), sub.end());
        }
      }
    }
    closure_busy_.erase(q);
    return closure_memo_[q] = std::move(acc);
  }

  void add_lock_edge(const std::string& from, const std::string& to, std::size_t tu,
                     int line) {
    if (from.empty() || to.empty()) return;
    auto& slot = lock_adj_[from];
    const auto it = slot.find(to);
    if (it == slot.end()) {
      slot.emplace(to, OwnedLockEdge{from, to, tu, line});
    }
  }

  void build_lock_graph() {
    for (const auto& [q, n] : nodes_) {
      for (const OwnedLockEdge& e : n.lock_edges) add_lock_edge(e.from, e.to, e.tu, e.line);
      // REQUIRES(m) means m is held on entry: every acquisition is m→a.
      for (const std::string& r : n.requires_m) {
        const std::string from = normalize_mutex(r, n.class_qname);
        for (const std::string& a : n.acquired) {
          if (a != from) add_lock_edge(from, a, n.def_tu, n.def_line);
        }
      }
      // Calls made while holding locks: held × callee acquisition closure.
      for (const OwnedCall& oc : n.calls) {
        if (oc.cs.held.empty()) continue;
        std::vector<std::string> callees = resolve_call(n, oc.cs);
        for (const std::string& callee : callees) {
          for (const std::string& a : acquisition_closure(callee)) {
            for (const std::string& h : oc.cs.held) {
              const std::string from = normalize_mutex(h, n.class_qname);
              if (a != from) add_lock_edge(from, a, oc.tu, oc.cs.line);
            }
          }
        }
      }
    }
  }

  [[nodiscard]] bool reaches(const std::string& from, const std::string& to) const {
    std::set<std::string> seen;
    std::deque<std::string> work{from};
    while (!work.empty()) {
      const std::string cur = work.front();
      work.pop_front();
      if (cur == to) return true;
      if (!seen.insert(cur).second) continue;
      const auto it = lock_adj_.find(cur);
      if (it == lock_adj_.end()) continue;
      for (const auto& [next, e] : it->second) work.push_back(next);
    }
    return false;
  }

  void report_lock_cycles() {
    std::set<std::string> reported;
    for (const auto& [from, edges] : lock_adj_) {
      for (const auto& [to, e] : edges) {
        if (from == to) {
          if (reported.insert(from + "|" + from).second) {
            report("lock-order", e.tu, e.line,
                   "mutex '" + from + "' acquired while already held: "
                   "self-deadlock on a non-recursive mutex");
          }
          continue;
        }
        if (!reaches(to, from)) continue;
        const std::string key = std::min(from, to) + "|" + std::max(from, to);
        if (!reported.insert(key).second) continue;
        std::string msg = "lock-order cycle: this site acquires '" + to +
                          "' while holding '" + from + "'";
        const auto back = lock_adj_.find(to);
        if (back != lock_adj_.end()) {
          const auto be = back->second.find(from);
          if (be != back->second.end()) {
            msg += ", but " + tus_[be->second.tu].file + ":" +
                   std::to_string(be->second.line) + " acquires '" + from +
                   "' while holding '" + to + "'";
          }
        }
        msg += "; pick one global acquisition order";
        report("lock-order", e.tu, e.line, std::move(msg));
      }
    }
  }

  struct TaintMark {
    std::string origin;
    std::vector<std::string> path;  ///< caller→…→source, callee names
  };
  std::map<std::string, TaintMark> tainted_;

  void taint_closure() {
    std::deque<std::string> work;
    for (const auto& [q, n] : nodes_) {
      if (n.taints.empty()) continue;
      tainted_[q] = TaintMark{n.taints.front().origin, {}};
      work.push_back(q);
    }
    while (!work.empty()) {
      const std::string cur = work.front();
      work.pop_front();
      const auto cs = callers_.find(cur);
      if (cs == callers_.end()) continue;
      const TaintMark mark = tainted_[cur];
      for (const std::string& caller : cs->second) {
        if (tainted_.count(caller) != 0) continue;
        TaintMark up;
        up.origin = mark.origin;
        up.path.reserve(mark.path.size() + 1);
        up.path.push_back(cur);
        up.path.insert(up.path.end(), mark.path.begin(), mark.path.end());
        tainted_[caller] = std::move(up);
        work.push_back(caller);
      }
    }
  }

  void report_det_taint() {
    for (const auto& [q, n] : nodes_) {
      if (!n.is_protected || !n.has_body) continue;
      const auto t = tainted_.find(q);
      if (t == tainted_.end()) continue;
      std::string msg = "deterministic-core function '" + q +
                        "' reaches a nondeterminism source (" + t->second.origin + ")";
      if (!t->second.path.empty()) {
        msg += " via ";
        const std::size_t shown = std::min<std::size_t>(t->second.path.size(), 4);
        for (std::size_t i = 0; i < shown; ++i) {
          if (i != 0) msg += " -> ";
          msg += t->second.path[i];
        }
        if (shown < t->second.path.size()) msg += " -> ...";
      }
      msg += "; derive it from the experiment config or HPCSLINT-ALLOW(det-taint) "
             "the definition";
      report("det-taint", n.def_tu, n.def_line, std::move(msg));
    }
  }

  // -------------------------------------------------------------------------
  // v4: thread-root inference + lockset race detection
  //
  // Roots: callables submitted to an exp::ThreadPool (`pool.submit(λ)`) and
  // bodies of `std::thread` constructions (direct-init or landing in a
  // thread container).
  // Everything reachable from a root over the resolved call graph runs in
  // that root's thread context; code reachable from no root runs in the
  // main/spawning context. A field touched from ≥2 distinct contexts is
  // *shared*. Entry locksets propagate interprocedurally: a function's
  // entry set is its REQUIRES plus the intersection over every call site
  // of (locks held at the site ∪ caller's entry set) — roots start empty
  // (a spawned body never inherits its spawner's locks).
  //
  // Reporting needs evidence, not just sharing — classes synchronized
  // externally (by their one caller) stay quiet:
  //  * inconsistent lockset: some accesses hold a mutex, this one does not;
  //  * all accesses bare, but the class owns a mutex member (it opted into
  //    internal locking and missed a spot).
  // GUARDED_BY'd fields are the lock-guard rule's jurisdiction; sync
  // primitives themselves are exempt.

  std::set<std::string> race_roots_;
  std::map<std::string, std::set<std::string>> root_ctx_;  ///< node → roots
  std::map<std::string, std::set<std::string>> entry_held_;
  std::set<std::string> entry_top_;  ///< still ⊤ in the fixpoint

  void collect_race_roots() {
    for (const TuIndex& tu : tus_) {
      for (const CallbackBind& b : tu.binds) {
        bool spawn = b.spawns_thread;
        const std::string tail = chain_tail(b.target);
        if (!spawn && b.kind == CallbackBind::Kind::kArg && tail == "submit") {
          spawn = true;  // exp::ThreadPool::submit — the pool runs it
        }
        if (!spawn && b.kind == CallbackBind::Kind::kArg && !b.recv_name.empty() &&
            (tail == "emplace_back" || tail == "push_back")) {
          // `threads_.emplace_back(λ)` in an out-of-class method body: the
          // receiver's thread-ness lives in the class merged from the header.
          const auto c = classes_.find(b.encl_class);
          if (c != classes_.end()) {
            const auto f = c->second.fields.find(b.recv_name);
            spawn = f != c->second.fields.end() && f->second.is_thread;
          }
        }
        if (!spawn) continue;
        for (const std::string& q : resolve_callable(b)) race_roots_.insert(q);
      }
    }
  }

  void propagate_root_contexts() {
    for (const std::string& r : race_roots_) {
      std::deque<std::string> work{r};
      std::set<std::string> seen;
      while (!work.empty()) {
        const std::string cur = std::move(work.front());
        work.pop_front();
        if (!seen.insert(cur).second) continue;
        root_ctx_[cur].insert(r);
        const auto it = callees_.find(cur);
        if (it == callees_.end()) continue;
        for (const std::string& next : it->second) work.push_back(next);
      }
    }
  }

  [[nodiscard]] std::set<std::string> requires_norm(const Node& n) const {
    std::set<std::string> out;
    for (const std::string& r : n.requires_m) {
      // normalize_mutex is non-const only through classes_ lookup; inline it.
      const std::string tail = mutex_tail(r);
      const auto c = classes_.find(n.class_qname);
      if (c != classes_.end() && c->second.fields.count(tail) != 0) {
        out.insert(n.class_qname + "::" + tail);
      } else {
        out.insert(tail);
      }
    }
    return out;
  }

  /// Optimistic (⊤-initialized) shrinking fixpoint over held_edges_.
  void entry_lockset_fixpoint() {
    std::map<std::string, std::vector<const HeldEdge*>> incoming;
    for (const HeldEdge& e : held_edges_) incoming[e.callee].push_back(&e);
    for (const auto& [q, n] : nodes_) {
      if (race_roots_.count(q) != 0 || incoming.count(q) == 0) {
        entry_held_[q] = requires_norm(n);  // spawned/external entry: REQUIRES only
      } else {
        entry_top_.insert(q);
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [q, n] : nodes_) {
        if (race_roots_.count(q) != 0) continue;
        const auto in = incoming.find(q);
        if (in == incoming.end()) continue;
        std::set<std::string> inter;
        bool any_known = false;
        for (const HeldEdge* e : in->second) {
          if (entry_top_.count(e->caller) != 0) continue;  // ⊤ caller: skip
          std::set<std::string> site = e->held;
          const auto ce = entry_held_.find(e->caller);
          if (ce != entry_held_.end()) {
            site.insert(ce->second.begin(), ce->second.end());
          }
          if (!any_known) {
            inter = std::move(site);
            any_known = true;
          } else {
            std::set<std::string> keep;
            for (const std::string& m : inter) {
              if (site.count(m) != 0) keep.insert(m);
            }
            inter = std::move(keep);
          }
        }
        if (!any_known) continue;  // all callers still ⊤
        std::set<std::string> cand = requires_norm(n);
        cand.insert(inter.begin(), inter.end());
        const bool was_top = entry_top_.erase(q) != 0;
        auto& cur = entry_held_[q];
        if (was_top || cand != cur) {
          cur = std::move(cand);
          changed = true;
        }
      }
    }
    // Call-graph cycles unreachable from any resolved context stay ⊤:
    // fall back to REQUIRES only (conservative toward reporting, but such
    // nodes are also unreachable from roots, so they carry no contexts).
    for (const std::string& q : entry_top_) {
      const auto n = nodes_.find(q);
      if (n != nodes_.end()) entry_held_[q] = requires_norm(n->second);
    }
  }

  void race_analysis() {
    collect_race_roots();
    if (race_roots_.empty()) return;  // no concurrency, no races
    propagate_root_contexts();
    entry_lockset_fixpoint();

    struct Access {
      std::string file;
      int line = 0;
      std::size_t tu = 0;
      std::set<std::string> held;      ///< effective: site locks ∪ entry set
      std::set<std::string> contexts;  ///< root qnames, or the main context
    };
    // (class, field) → accesses, gathered over the sorted node map.
    std::map<std::string, std::map<std::string, std::vector<Access>>> by_field;
    for (const auto& [q, n] : nodes_) {
      if (n.class_qname.empty()) continue;
      const auto c = classes_.find(n.class_qname);
      if (c == classes_.end()) continue;
      for (const OwnedWrite& ow : n.writes) {
        const auto f = c->second.fields.find(ow.w.field);
        if (f == c->second.fields.end()) continue;
        if (!f->second.guard.empty() || is_sync_primitive_field(f->second)) continue;
        Access a;
        a.file = tus_[ow.tu].file;
        a.line = ow.w.line;
        a.tu = ow.tu;
        for (const std::string& h : ow.w.held) {
          a.held.insert(normalize_mutex(h, n.class_qname));
        }
        const auto eh = entry_held_.find(q);
        if (eh != entry_held_.end()) {
          a.held.insert(eh->second.begin(), eh->second.end());
        }
        const auto ctx = root_ctx_.find(q);
        if (ctx != root_ctx_.end() && !ctx->second.empty()) {
          a.contexts = ctx->second;
        } else {
          a.contexts.insert("<main>");
        }
        by_field[n.class_qname][ow.w.field].push_back(std::move(a));
      }
    }

    for (const auto& [cls, fields] : by_field) {
      for (const auto& [field, accesses] : fields) {
        std::set<std::string> contexts;
        for (const Access& a : accesses) {
          contexts.insert(a.contexts.begin(), a.contexts.end());
        }
        if (contexts.size() < 2) continue;  // single thread context: no race
        std::set<std::string> common = accesses.front().held;
        for (const Access& a : accesses) {
          std::set<std::string> keep;
          for (const std::string& m : common) {
            if (a.held.count(m) != 0) keep.insert(m);
          }
          common = std::move(keep);
        }
        if (!common.empty()) continue;  // consistently guarded

        // Most-held mutex = the annotation suggestion; lexicographic min on
        // ties keeps the message deterministic.
        std::map<std::string, std::size_t> votes;
        for (const Access& a : accesses) {
          for (const std::string& m : a.held) ++votes[m];
        }
        std::string best;
        std::size_t best_n = 0;
        for (const auto& [m, k] : votes) {
          if (k > best_n) {
            best = m;
            best_n = k;
          }
        }
        const std::string shown = cls + "::" + field;
        if (best_n > 0) {
          // Inconsistent lockset: report the first bare access (file/line
          // order) that misses the majority mutex.
          const Access* bad = nullptr;
          for (const Access& a : accesses) {
            if (a.held.count(best) != 0) continue;
            if (bad == nullptr || a.file < bad->file ||
                (a.file == bad->file && a.line < bad->line)) {
              bad = &a;
            }
          }
          if (bad == nullptr) continue;
          report("shared-race", bad->tu, bad->line,
                 "shared field '" + shown + "' (reached from " +
                     std::to_string(contexts.size()) +
                     " thread contexts) has an inconsistent lockset: " +
                     std::to_string(best_n) + " of " +
                     std::to_string(accesses.size()) + " accesses hold '" +
                     best + "' but this one does not; annotate the field "
                     "GUARDED_BY(" + mutex_tail(best) + ") and guard every "
                     "access");
        } else {
          // Every access is bare: only a defect when the class owns a mutex.
          const auto c = classes_.find(cls);
          if (c == classes_.end()) continue;
          std::string mu;
          for (const auto& [fname, fi] : c->second.fields) {
            if (is_mutex_field(fi)) {
              mu = fname;
              break;
            }
          }
          if (mu.empty()) continue;  // externally synchronized by design
          const Access* first = &accesses.front();
          for (const Access& a : accesses) {
            if (a.file < first->file ||
                (a.file == first->file && a.line < first->line)) {
              first = &a;
            }
          }
          report("shared-race", first->tu, first->line,
                 "shared field '" + shown + "' is reached from " +
                     std::to_string(contexts.size()) +
                     " thread contexts with no lock held at any access, but '" +
                     cls + "' owns mutex '" + mu + "'; annotate the field "
                     "GUARDED_BY(" + mu + ") and take a MutexLock around each "
                     "access");
        }
      }
    }
  }
};

}  // namespace

void link_program(std::vector<TuIndex>& tus, std::vector<Finding>& out) {
  Linker(tus, out).run();
}

}  // namespace hpcslint
