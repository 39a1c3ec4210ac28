// hpcslint front end, stage 2: tolerant recursive-descent declaration parser.
//
// One forward pass over the token stream with an explicit scope stack
// (namespace / class / function / block). The parser is deliberately
// *tolerant*: C++ it cannot classify is skipped, never fatal — a lint must
// survive every file in the tree, including ones using constructs it does
// not model (lambdas, operator overloads, macros). The invariants it does
// maintain:
//
//  - every container declaration is registered in the scope that owns it,
//    so iteration findings resolve the variable actually in scope (fields
//    of the enclosing class included, via the merged class table);
//  - every function definition becomes a FuncInfo carrying its call sites,
//    direct nondeterminism sources, MutexLock acquisitions (with the held
//    set at each site) and candidate guarded-field writes;
//  - uses that cannot be resolved inside the TU (trailing-underscore
//    members of a class defined in another file) are recorded as pending
//    and finished by the link step (project.cpp).
//
// Heuristics are documented at their implementation, same policy as v1.

#include "tu.h"

#include <algorithm>
#include <array>
#include <unordered_set>
#include <utility>

namespace hpcslint {
namespace {

ContainerKind container_kind(std::string_view t) {
  if (t == "unordered_map" || t == "unordered_set" || t == "unordered_multimap" ||
      t == "unordered_multiset") {
    return ContainerKind::kUnordered;
  }
  if (t == "map" || t == "set" || t == "multimap" || t == "multiset") {
    return ContainerKind::kOrdered;
  }
  return ContainerKind::kNone;
}

// Keywords that can open a type: seeing one arms "the next lone identifier
// is a declared name" (the after_type_ flag).
bool is_type_keyword(std::string_view t) {
  static const std::unordered_set<std::string_view> k = {
      "auto", "void",  "bool",   "char",     "short",  "int",    "long",
      "float", "double", "signed", "unsigned", "size_t", "wchar_t"};
  return k.count(t) != 0;
}

// Keywords the statement walker steps over without further analysis.
bool is_skip_keyword(std::string_view t) {
  static const std::unordered_set<std::string_view> k = {
      "const",    "static",       "inline",     "constexpr",  "consteval",
      "virtual",  "mutable",      "explicit",   "volatile",   "thread_local",
      "register", "extern",       "public",     "private",    "protected",
      "typename", "if",           "else",       "while",      "do",
      "switch",   "case",         "default",    "break",      "continue",
      "return",   "goto",         "new",        "delete",     "sizeof",
      "alignof",  "static_cast",  "dynamic_cast", "reinterpret_cast",
      "const_cast", "throw",      "try",        "catch",      "noexcept",
      "this",     "nullptr",      "true",       "false",      "final",
      "override", "co_await",     "co_return",  "co_yield",   "decltype",
      "concept",  "requires",     "export",     "asm",        "friend",
      "static_assert"};
  return k.count(t) != 0;
}

bool is_clock_name(std::string_view t) {
  return t == "system_clock" || t == "steady_clock" || t == "high_resolution_clock";
}

bool is_rand_name(std::string_view t) {
  static const std::unordered_set<std::string_view> k = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "random_device"};
  return k.count(t) != 0;
}

bool is_begin_name(std::string_view t) {
  return t == "begin" || t == "cbegin" || t == "rbegin" || t == "crbegin";
}

// Member calls that mutate their receiver — a write for the lock-guard rule.
bool is_mutating_member(std::string_view t) {
  static const std::unordered_set<std::string_view> k = {
      "push_back", "emplace_back", "push_front", "emplace_front", "pop_back",
      "pop_front", "insert",       "emplace",    "erase",         "clear",
      "resize",    "assign",       "swap",       "store",         "push",
      "pop",       "reset"};
  return k.count(t) != 0;
}

// Type names that carry a stored callable: a declaration of one of these is a
// callback slot for the value-flow analysis.
bool is_callback_type(std::string_view t) {
  if (t == "function" || t == "InplaceFunction" || t == "move_only_function") {
    return true;
  }
  const auto ends = [&](std::string_view suf) {
    return t.size() > suf.size() && t.substr(t.size() - suf.size()) == suf;
  };
  return ends("Fn") || ends("Callback") || ends("Handler");
}

}  // namespace

bool is_protected_segment(std::string_view seg) {
  // Source directories of the deterministic core, plus the namespace
  // segments those subsystems actually use (src/simcore → hpcs::sim,
  // src/kernel → hpcs::kern, src/power5 → hpcs::p, src/obs → hpcs::obs).
  return seg == "simcore" || seg == "kernel" || seg == "power5" || seg == "obs" ||
         seg == "sim" || seg == "kern" || seg == "p" || seg == "p5";
}

bool is_protected_file(const std::string& file) {
  std::string seg;
  for (const char c : file) {
    if (c == '/' || c == '\\') {
      if (is_protected_segment(seg)) return true;
      seg.clear();
    } else {
      seg += c;
    }
  }
  return false;  // the file name itself is not a directory segment
}

namespace {

/// Result of reading one `a::b::c` identifier chain (template arguments
/// skipped in place, char-level).
struct Chain {
  std::vector<std::string> segs;
  ContainerKind container = ContainerKind::kNone;  ///< container kw as last seg
  bool pointer_key = false;
  bool is_mutexlock = false;
  bool is_mutex_like = false;  ///< Mutex / CondVar / mutex / condition_variable
  bool is_thread = false;      ///< thread/jthread, or a template arg names one
  int line = 0;
  std::size_t first_begin = 0;
};

class Parser {
 public:
  explicit Parser(TuIndex& tu)
      : tu_(tu), code_(tu.prep.code), toks_(tu.toks) {}

  void run() {
    mark_preprocessor_lines();
    push_scope(Scope::kNamespace, "");  // global scope
    while (i_ < toks_.size()) {
      const Tok& t = toks_[i_];
      if (t.line < static_cast<int>(preproc_.size()) &&
          preproc_[static_cast<std::size_t>(t.line)] != 0) {
        ++i_;
        continue;
      }
      if (t.kind == TokKind::kPunct) {
        handle_punct(t);
        continue;
      }
      if (t.kind == TokKind::kNumber) {
        ++i_;
        continue;
      }
      handle_ident(t);
    }
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kFunction, kBlock };
    Kind kind = kBlock;
    std::string name;                       ///< namespace/class segment(s)
    std::map<std::string, VarInfo> vars;    ///< names declared in this scope
    std::vector<std::string> locked;        ///< mutexes acquired in this scope
    int cls_index = -1;                     ///< into tu_.classes for kClass
    int func_index = -1;                    ///< into tu_.funcs for kFunction
  };

  TuIndex& tu_;
  std::string_view code_;
  const std::vector<Tok>& toks_;
  std::size_t i_ = 0;
  std::vector<Scope> scopes_;
  std::vector<char> preproc_;  ///< per line, 1-based: inside a # directive
  bool after_type_ = false;    ///< a type was just read; next lone ident declares
  ContainerKind pend_container_ = ContainerKind::kNone;
  bool pend_pointer_key_ = false;
  bool pend_mutexlock_ = false;
  std::string pend_type_;       ///< joined chain of the pending type
  bool pend_callback_ = false;  ///< pending type is a callback slot type
  bool pend_thread_ = false;    ///< pending type is std::thread / a thread container
  bool pend_virtual_ = false;   ///< `virtual` seen before the current head
  std::string last_decl_name_;  ///< most recent declared name (GUARDED_BY target)
  int last_decl_line_ = 0;
  int lambda_count_ = 0;  ///< per-TU counter for synthetic lambda names

  // Expression context for the callback value-flow: the stack of call
  // expressions whose argument lists we are currently inside, and the target
  // of a pending `slot = ...` assignment. A lambda (or &function) seen while
  // either is live becomes a CallbackBind.
  struct ActiveCall {
    std::string name;       ///< `::`-joined chain of the called expression
    std::string recv_name;  ///< receiver identifier of a member call ("" if none)
    bool spawns = false;    ///< the call constructs a std::thread / fills a thread container
    int depth = 0;          ///< paren depth its argument list opened at
  };
  int paren_depth_ = 0;
  std::vector<ActiveCall> active_calls_;
  std::string pending_call_name_;  ///< set between the call chain and its '('
  std::string pending_call_recv_;  ///< receiver of the pending member call
  bool pending_call_spawns_ = false;  ///< pending call is a thread construction
  struct PendAssign {
    bool active = false;
    std::string target;
    std::string recv_type;
    int line = 0;
  };
  PendAssign pend_assign_;

  // -- small utilities ------------------------------------------------------

  [[nodiscard]] const Tok* tk(std::size_t k) const {
    return k < toks_.size() ? &toks_[k] : nullptr;
  }
  [[nodiscard]] bool punct_at(std::size_t k, char c) const {
    const Tok* t = tk(k);
    return t != nullptr && t->kind == TokKind::kPunct && t->text.size() == 1 &&
           t->text[0] == c;
  }

  void report(const char* rule, int line, std::string msg) {
    if (tu_.prep.allowed(rule, line)) return;
    tu_.local_findings.push_back(Finding{tu_.file, line, rule, std::move(msg)});
  }

  void push_scope(Scope::Kind kind, std::string name, int cls = -1, int fn = -1) {
    Scope s;
    s.kind = kind;
    s.name = std::move(name);
    s.cls_index = cls;
    s.func_index = fn;
    scopes_.push_back(std::move(s));
  }

  void pop_scope() {
    if (scopes_.size() > 1) scopes_.pop_back();
    after_type_ = false;
    clear_pending_type();
  }

  void clear_pending_type() {
    pend_container_ = ContainerKind::kNone;
    pend_pointer_key_ = false;
    pend_mutexlock_ = false;
    pend_type_.clear();
    pend_callback_ = false;
    pend_thread_ = false;
  }

  [[nodiscard]] FuncInfo* cur_func() {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction && it->func_index >= 0) {
        return &tu_.funcs[static_cast<std::size_t>(it->func_index)];
      }
    }
    return nullptr;
  }

  [[nodiscard]] bool in_function() {
    return cur_func() != nullptr;
  }

  [[nodiscard]] int innermost_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->cls_index;
    }
    return -1;
  }

  /// Namespace+class qualification of the current scope, "A::B::C".
  [[nodiscard]] std::string scope_prefix() const {
    std::string out;
    for (const Scope& s : scopes_) {
      if ((s.kind == Scope::kNamespace || s.kind == Scope::kClass) && !s.name.empty()) {
        if (!out.empty()) out += "::";
        out += s.name;
      }
    }
    return out;
  }

  [[nodiscard]] bool scope_is_protected() const {
    for (const Scope& s : scopes_) {
      if (s.kind != Scope::kNamespace) continue;
      std::string seg;
      for (const char c : s.name + std::string("::")) {
        if (c == ':') {
          if (is_protected_segment(seg)) return true;
          seg.clear();
        } else {
          seg += c;
        }
      }
    }
    return is_protected_file(tu_.file);
  }

  /// All mutexes held here: every enclosing scope's acquisitions plus the
  /// current function's REQUIRES set (the caller holds those by contract).
  [[nodiscard]] std::vector<std::string> held_mutexes() {
    std::vector<std::string> out;
    for (const Scope& s : scopes_) {
      out.insert(out.end(), s.locked.begin(), s.locked.end());
    }
    if (const FuncInfo* f = cur_func()) {
      out.insert(out.end(), f->requires_mutexes.begin(), f->requires_mutexes.end());
    }
    return out;
  }

  /// Mutexes held by the *current function itself*: scopes inside its own
  /// body plus its REQUIRES contract. A lambda body must not inherit locks
  /// held at its definition site — it runs later, possibly on another
  /// thread, when those scopes are long gone.
  [[nodiscard]] std::vector<std::string> held_in_current_function() {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t s = scopes_.size(); s-- > 0;) {
      if (scopes_[s].kind == Scope::kFunction) {
        start = s;
        break;
      }
    }
    for (std::size_t s = start; s < scopes_.size(); ++s) {
      out.insert(out.end(), scopes_[s].locked.begin(), scopes_[s].locked.end());
    }
    if (const FuncInfo* f = cur_func()) {
      out.insert(out.end(), f->requires_mutexes.begin(), f->requires_mutexes.end());
    }
    return out;
  }

  enum class Res { kNotFound, kPlain, kContainer };

  /// Resolve a name through the scope chain (locals shadow outers shadow
  /// class fields shadow globals — same order a compiler uses).
  Res resolve(std::string_view name, ContainerKind& kind, bool& pointer_key) {
    const std::string key(name);
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto v = it->vars.find(key);
      if (v != it->vars.end()) {
        kind = v->second.kind;
        pointer_key = v->second.pointer_key;
        return kind == ContainerKind::kNone ? Res::kPlain : Res::kContainer;
      }
      if (it->kind == Scope::kClass && it->cls_index >= 0) {
        const ClassInfo& c = tu_.classes[static_cast<std::size_t>(it->cls_index)];
        const auto f = c.fields.find(key);
        if (f != c.fields.end()) {
          kind = f->second.container;
          pointer_key = f->second.pointer_key;
          return kind == ContainerKind::kNone ? Res::kPlain : Res::kContainer;
        }
      }
    }
    return Res::kNotFound;
  }

  void mark_preprocessor_lines() {
    int max_line = 1;
    for (const char c : code_) {
      if (c == '\n') ++max_line;
    }
    preproc_.assign(static_cast<std::size_t>(max_line) + 2, 0);
    int line = 1;
    bool at_line_start = true;
    bool in_directive = false;
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const char c = code_[i];
      if (c == '\n') {
        // A directive continues onto the next line iff it ends with '\'.
        if (in_directive) {
          std::size_t back = i;
          while (back > 0 && (code_[back - 1] == ' ' || code_[back - 1] == '\r')) --back;
          in_directive = back > 0 && code_[back - 1] == '\\';
        }
        ++line;
        at_line_start = true;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
      if (at_line_start && !in_directive && c == '#') in_directive = true;
      at_line_start = false;
      if (in_directive && line < static_cast<int>(preproc_.size())) {
        preproc_[static_cast<std::size_t>(line)] = 1;
      }
    }
  }

  // -- token-level skipping -------------------------------------------------

  /// With toks_[i_] on the opening punct, skip past its balanced match.
  void skip_balanced(char open, char close) {
    int depth = 0;
    while (i_ < toks_.size()) {
      const Tok& t = toks_[i_];
      if (t.kind == TokKind::kPunct && t.text.size() == 1) {
        if (t.text[0] == open) ++depth;
        if (t.text[0] == close) {
          --depth;
          if (depth == 0) {
            ++i_;
            return;
          }
        }
      }
      ++i_;
    }
  }

  /// Skip to the ';' ending the current declaration, balancing (), {}, [].
  void skip_to_semi() {
    int paren = 0, brace = 0, bracket = 0;
    while (i_ < toks_.size()) {
      const Tok& t = toks_[i_];
      if (t.kind == TokKind::kPunct && t.text.size() == 1) {
        switch (t.text[0]) {
          case '(': ++paren; break;
          case ')': --paren; break;
          case '{': ++brace; break;
          case '}':
            if (brace == 0) return;  // scope close: let the main loop pop
            --brace;
            break;
          case '[': ++bracket; break;
          case ']': --bracket; break;
          case ';':
            if (paren <= 0 && brace <= 0 && bracket <= 0) {
              ++i_;
              return;
            }
            break;
          default: break;
        }
      }
      ++i_;
    }
  }

  /// Skip an opaque function-like tail: everything up to a ';' or through a
  /// balanced '{...}' body (used for operator overloads we do not model).
  void skip_body_or_semi() {
    while (i_ < toks_.size()) {
      const Tok& t = toks_[i_];
      if (t.kind == TokKind::kPunct && t.text.size() == 1) {
        if (t.text[0] == ';') {
          ++i_;
          return;
        }
        if (t.text[0] == '{') {
          skip_balanced('{', '}');
          return;
        }
        if (t.text[0] == '(') {
          skip_balanced('(', ')');
          continue;
        }
        if (t.text[0] == '}') return;  // stray close: let the main loop pop
      }
      ++i_;
    }
  }

  // -- chain reading --------------------------------------------------------

  /// Read `seg(::seg)*` starting at toks_[i_] (an identifier), skipping
  /// template argument lists char-level so `map<K, V*>` is one step.
  Chain read_chain() {
    Chain ch;
    ch.line = toks_[i_].line;
    ch.first_begin = toks_[i_].begin;
    while (i_ < toks_.size() && toks_[i_].ident()) {
      const Tok& t = toks_[i_];
      ch.segs.emplace_back(t.text);
      ++i_;
      bool had_args = false;
      const std::size_t nx = next_nonspace(code_, t.end);
      if (nx != std::string_view::npos && code_[nx] == '<') {
        const std::size_t past = match_angles(code_, nx);
        if (past != std::string_view::npos) {
          had_args = true;
          const std::string arg = first_template_arg(code_, nx);
          if (container_kind(t.text) != ContainerKind::kNone) {
            ch.container = container_kind(t.text);
            ch.pointer_key = !arg.empty() && arg.back() == '*';
          }
          // `std::vector<std::thread>` is a thread container: binds into it
          // cross a thread boundary even though the stripped type is vector.
          if (arg.find("thread") != std::string::npos) ch.is_thread = true;
          while (i_ < toks_.size() && toks_[i_].begin < past) ++i_;
        }
      }
      if (!had_args && container_kind(t.text) != ContainerKind::kNone) {
        // `it.map` / bare `set` with no template args: not a container type.
      } else if (had_args && container_kind(t.text) == ContainerKind::kNone) {
        ch.container = ContainerKind::kNone;  // args belong to a non-container
        ch.pointer_key = false;
      }
      if (punct_at(i_, ':') && punct_at(i_ + 1, ':') && tk(i_ + 2) != nullptr &&
          tk(i_ + 2)->ident()) {
        ch.container = ContainerKind::kNone;  // `map<..>::iterator` is not the map
        ch.pointer_key = false;
        i_ += 2;
        continue;
      }
      break;
    }
    if (!ch.segs.empty()) {
      const std::string& last = ch.segs.back();
      ch.is_mutexlock = last == "MutexLock";
      ch.is_mutex_like = last == "Mutex" || last == "CondVar" || last == "mutex" ||
                         last == "condition_variable";
      if (last == "thread" || last == "jthread") ch.is_thread = true;
    }
    return ch;
  }

  // -- dispatch -------------------------------------------------------------

  void handle_punct(const Tok& t) {
    const char c = t.text[0];
    if (c == '{') {
      pend_virtual_ = false;
      push_scope(Scope::kBlock, "");
      ++i_;
      return;
    }
    if (c == '}') {
      pend_virtual_ = false;
      pend_assign_.active = false;
      paren_depth_ = 0;
      active_calls_.clear();
      pending_call_name_.clear();
      pop_scope();
      ++i_;
      return;
    }
    if (c == ';' || c == ',') {
      after_type_ = false;
      clear_pending_type();
      if (c == ';') {
        pend_virtual_ = false;
        pend_assign_.active = false;
      }
      ++i_;
      return;
    }
    if (c == '(') {
      ++paren_depth_;
      if (!pending_call_name_.empty()) {
        active_calls_.push_back(ActiveCall{std::move(pending_call_name_),
                                           std::move(pending_call_recv_),
                                           pending_call_spawns_, paren_depth_});
        pending_call_name_.clear();
        pending_call_recv_.clear();
        pending_call_spawns_ = false;
      }
      after_type_ = false;
      clear_pending_type();
      ++i_;
      return;
    }
    if (c == ')') {
      if (!active_calls_.empty() && active_calls_.back().depth == paren_depth_) {
        active_calls_.pop_back();
      }
      if (paren_depth_ > 0) --paren_depth_;
      after_type_ = false;
      clear_pending_type();
      ++i_;
      return;
    }
    if (c == '[') {
      if (try_lambda()) return;
      after_type_ = false;
      clear_pending_type();
      ++i_;
      return;
    }
    if (c == '&' || c == '*' || c == '>' || c == ']') {
      ++i_;  // these may sit between a type and its declared name
      return;
    }
    after_type_ = false;
    if (c != '.') clear_pending_type();
    ++i_;
  }

  void handle_ident(const Tok& t) {
    const std::string_view w = t.text;
    if (w == "namespace") {
      parse_namespace();
      return;
    }
    if ((w == "class" || w == "struct") && !(i_ > 0 && toks_[i_ - 1].is("enum"))) {
      parse_class();
      return;
    }
    if (w == "enum") {
      parse_enum();
      return;
    }
    if (w == "template") {
      // Skip only the parameter header `<...>`; the templated entity that
      // follows (class, function, member) is parsed structurally like any
      // other declaration — one symbol per primary template, bodies analyzed.
      ++i_;
      const std::size_t nx = next_nonspace(code_, t.end);
      if (nx != std::string_view::npos && code_[nx] == '<') {
        const std::size_t past = match_angles(code_, nx);
        if (past != std::string_view::npos) {
          while (i_ < toks_.size() && toks_[i_].begin < past) ++i_;
        }
      }
      after_type_ = false;
      clear_pending_type();
      return;
    }
    if (w == "using" || w == "typedef") {
      skip_to_semi();
      return;
    }
    if (w == "operator") {
      parse_operator();
      return;
    }
    if (w == "for") {
      range_for_reactor(t);
      after_type_ = false;
      ++i_;
      return;
    }
    if (is_begin_name(w) && preceded_by_member_access(code_, t.begin)) {
      begin_reactor(t);
      ++i_;
      return;
    }
    if (w == "GUARDED_BY" && punct_at(i_ + 1, '(')) {
      guard_reactor();
      return;
    }
    if (w == "virtual") {
      pend_virtual_ = true;
      ++i_;
      return;
    }
    if (is_skip_keyword(w)) {
      ++i_;
      return;
    }
    if (is_type_keyword(w)) {
      after_type_ = true;
      ++i_;
      return;
    }
    process_chain(t);
  }

  void parse_namespace() {
    ++i_;  // past 'namespace'
    std::string name;
    while (i_ < toks_.size() && toks_[i_].ident()) {
      if (!name.empty()) name += "::";
      name += std::string(toks_[i_].text);
      ++i_;
      if (punct_at(i_, ':') && punct_at(i_ + 1, ':')) {
        i_ += 2;
        continue;
      }
      break;
    }
    if (punct_at(i_, '=')) {
      skip_to_semi();  // namespace alias
      return;
    }
    if (punct_at(i_, '{')) {
      push_scope(Scope::kNamespace, std::move(name));
      ++i_;
    }
  }

  void parse_class() {
    ++i_;  // past class/struct
    std::string name, prev;
    ClassInfo info;
    bool in_bases = false;
    while (i_ < toks_.size()) {
      const Tok& t = toks_[i_];
      if (t.ident()) {
        if (punct_at(i_ + 1, '(')) {
          // attribute-like macro, e.g. HPCS_CAPABILITY("mutex"): skip, and do
          // not let the macro name become the class name.
          ++i_;
          skip_balanced('(', ')');
          continue;
        }
        if (in_bases) {
          if (t.text != "public" && t.text != "protected" && t.text != "private" &&
              t.text != "virtual") {
            Chain b = read_chain();
            std::string joined;
            for (const std::string& s : b.segs) {
              if (!joined.empty()) joined += "::";
              joined += s;
            }
            info.bases.push_back(std::move(joined));
            continue;
          }
          ++i_;
          continue;
        }
        prev = name;
        name = std::string(t.text);
        ++i_;
        const std::size_t nx = next_nonspace(code_, t.end);
        if (nx != std::string_view::npos && code_[nx] == '<') {
          const std::size_t past = match_angles(code_, nx);
          if (past != std::string_view::npos) {
            while (i_ < toks_.size() && toks_[i_].begin < past) ++i_;
          }
        }
        continue;
      }
      if (t.kind == TokKind::kPunct) {
        const char c = t.text[0];
        if (c == ';') {
          ++i_;
          return;  // forward declaration
        }
        if (c == '{') {
          if (name == "final") name = prev;
          if (name.empty()) {
            ++i_;
            push_scope(Scope::kBlock, "");
            return;
          }
          const std::string prefix = scope_prefix();
          info.qname = prefix.empty() ? name : prefix + "::" + name;
          info.line = t.line;
          tu_.classes.push_back(std::move(info));
          push_scope(Scope::kClass, name, static_cast<int>(tu_.classes.size()) - 1);
          ++i_;
          return;
        }
        if (c == ':' && !punct_at(i_ + 1, ':') &&
            !(i_ > 0 && toks_[i_ - 1].kind == TokKind::kPunct && toks_[i_ - 1].is(":"))) {
          if (name == "final") name = prev;
          in_bases = true;
          ++i_;
          continue;
        }
      }
      ++i_;
    }
  }

  /// `enum [class|struct] Name [: base] { enumerators };` — skipped whole:
  /// enumerators are neither declarations nor calls, and walking them as
  /// code would mistake initializer expressions for uses.
  void parse_enum() {
    ++i_;  // past 'enum'
    while (i_ < toks_.size()) {  // name and underlying type, then { ; or }
      const Tok& t = toks_[i_];
      if (t.kind == TokKind::kPunct && t.text.size() == 1) {
        if (t.text[0] == ';') {
          ++i_;
          return;  // opaque or forward declaration
        }
        if (t.text[0] == '}') return;
        if (t.text[0] == '{') break;
      }
      ++i_;
    }
    skip_balanced('{', '}');
    after_type_ = false;
    clear_pending_type();
  }

  void parse_operator() {
    // Operator overloads are opaque to the symbol table: consume through the
    // declaration or body without recording.
    ++i_;
    skip_body_or_semi();
    after_type_ = false;
    clear_pending_type();
  }

  // -- reactors -------------------------------------------------------------

  void taint(const std::string& what, int line, const char* v1_rule) {
    FuncInfo* f = cur_func();
    if (f == nullptr) return;
    if (tu_.prep.allowed("det-taint", line)) return;
    if (v1_rule != nullptr && tu_.prep.allowed(v1_rule, line)) return;
    f->taints.push_back(TaintSource{what, line});
  }

  /// Identifier immediately before the `.`/`->` that starts a member chain;
  /// "" when the receiver is a bigger expression.
  [[nodiscard]] std::string receiver_name(std::size_t chain_begin) const {
    std::size_t p = prev_nonspace(code_, chain_begin);
    if (p == std::string_view::npos) return "";
    if (code_[p] == '>' && p > 0) --p;  // '->'
    if (p == 0) return "";
    const std::size_t ident_end = prev_nonspace(code_, p);
    if (ident_end == std::string_view::npos || !is_ident_char(code_[ident_end])) {
      return "";
    }
    std::size_t b = ident_end;
    while (b > 0 && is_ident_char(code_[b - 1])) --b;
    return std::string(code_.substr(b, ident_end + 1 - b));
  }

  /// Declared type of the receiver of a member access, resolved through the
  /// scope chain (locals, parameters, same-TU class fields). `this` resolves
  /// to the enclosing class. "" when unknown — the linker then falls back to
  /// v2's same-class / small-candidate-set resolution.
  [[nodiscard]] std::string receiver_type(std::size_t chain_begin) {
    const std::string name = receiver_name(chain_begin);
    if (name.empty()) return "";
    if (name == "this") {
      const int cls = innermost_class();
      if (cls >= 0) return tu_.classes[static_cast<std::size_t>(cls)].qname;
      if (const FuncInfo* f = cur_func()) return f->class_qname;
      return "";
    }
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto v = it->vars.find(name);
      if (v != it->vars.end()) return v->second.type;
      if (it->kind == Scope::kClass && it->cls_index >= 0) {
        const ClassInfo& c = tu_.classes[static_cast<std::size_t>(it->cls_index)];
        const auto fld = c.fields.find(name);
        if (fld != c.fields.end()) return fld->second.type;
      }
    }
    return "";
  }

  /// True when the receiver of a member access resolves (through the scope
  /// chain) to a thread or thread-container declaration — the parse-time
  /// half of thread-spawn detection; fields of classes merged from other
  /// TUs are settled at link time via CallbackBind::recv_name.
  [[nodiscard]] bool receiver_is_thread(std::size_t chain_begin) {
    const std::string name = receiver_name(chain_begin);
    if (name.empty()) return false;
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto v = it->vars.find(name);
      if (v != it->vars.end()) return v->second.is_thread;
      if (it->kind == Scope::kClass && it->cls_index >= 0) {
        const ClassInfo& c = tu_.classes[static_cast<std::size_t>(it->cls_index)];
        const auto fld = c.fields.find(name);
        if (fld != c.fields.end()) return fld->second.is_thread;
      }
    }
    return false;
  }

  [[nodiscard]] std::string encl_qname() {
    const FuncInfo* f = cur_func();
    return f != nullptr ? f->qname : "";
  }
  [[nodiscard]] std::string encl_class() {
    const FuncInfo* f = cur_func();
    return f != nullptr ? f->class_qname : "";
  }

  /// Report iteration over a resolved container (shared by the range-for and
  /// .begin reactors). Returns true when something fired.
  bool report_iteration(std::string_view name, ContainerKind kind, bool pointer_key,
                        int line, const std::string& via) {
    if (kind == ContainerKind::kUnordered) {
      if (via.empty()) {
        report("unordered-iter", line,
               "range-for over unordered container '" + std::string(name) +
                   "': hash order is not deterministic; copy into a sorted "
                   "container first");
      } else {
        report("unordered-iter", line,
               "iteration over unordered container '" + std::string(name) + "' via ." +
                   via + "(): hash order is not deterministic");
      }
      taint("iteration over unordered '" + std::string(name) + "'", line,
            "unordered-iter");
      return true;
    }
    if (kind == ContainerKind::kOrdered && pointer_key) {
      report("pointer-key", line,
             "iteration over pointer-keyed container '" + std::string(name) +
                 "': traversal follows allocation addresses; key by a stable id "
                 "instead");
      taint("iteration over pointer-keyed '" + std::string(name) + "'", line,
            "pointer-key");
      return true;
    }
    return false;
  }

  /// `for (decl : range)` — resolve identifiers in the range expression
  /// through the scope chain; the v1 rule only matched names in the same
  /// file with no scoping at all.
  void range_for_reactor(const Tok& t) {
    const std::size_t open = next_nonspace(code_, t.end);
    if (open == std::string_view::npos || code_[open] != '(') return;
    int depth = 0;
    std::size_t colon = std::string_view::npos;
    std::size_t close = std::string_view::npos;
    for (std::size_t i = open; i < code_.size(); ++i) {
      const char c = code_[i];
      if (c == '(') {
        ++depth;
      } else if (c == ')') {
        --depth;
        if (depth == 0) {
          close = i;
          break;
        }
      } else if (c == ':' && depth == 1 && colon == std::string_view::npos) {
        const bool dbl = (i + 1 < code_.size() && code_[i + 1] == ':') ||
                         (i > 0 && code_[i - 1] == ':');
        if (!dbl) colon = i;
      } else if (c == ';' && depth == 1) {
        break;  // classic for loop, not range-for
      }
    }
    if (colon == std::string_view::npos || close == std::string_view::npos) return;
    for (std::size_t tj = i_ + 1; tj < toks_.size() && toks_[tj].begin < close; ++tj) {
      const Tok& u = toks_[tj];
      if (u.begin <= colon || !u.ident()) continue;
      if (is_skip_keyword(u.text) || is_type_keyword(u.text)) continue;
      ContainerKind kind = ContainerKind::kNone;
      bool pointer_key = false;
      const Res r = resolve(u.text, kind, pointer_key);
      if (r == Res::kContainer) {
        if (report_iteration(u.text, kind, pointer_key, t.line, "")) return;
      } else if (r == Res::kNotFound && !u.text.empty() && u.text.back() == '_') {
        FuncInfo* f = cur_func();
        if (f != nullptr && !f->class_qname.empty()) {
          f->pending_uses.push_back(
              PendingContainerUse{std::string(u.text), true, "", t.line});
          return;
        }
      }
    }
  }

  /// `recv.begin()` / `recv->cbegin()` … — resolve the receiver.
  void begin_reactor(const Tok& t) {
    std::size_t p = prev_nonspace(code_, t.begin);
    if (p == std::string_view::npos) return;
    if (code_[p] == '>' && p > 0) --p;  // '->'
    if (p == 0) return;
    const std::size_t ident_end = prev_nonspace(code_, p);
    if (ident_end == std::string_view::npos || !is_ident_char(code_[ident_end])) return;
    std::size_t ident_begin = ident_end;
    while (ident_begin > 0 && is_ident_char(code_[ident_begin - 1])) --ident_begin;
    const std::string_view ident = code_.substr(ident_begin, ident_end + 1 - ident_begin);
    ContainerKind kind = ContainerKind::kNone;
    bool pointer_key = false;
    const Res r = resolve(ident, kind, pointer_key);
    if (r == Res::kContainer) {
      report_iteration(ident, kind, pointer_key, t.line, std::string(t.text));
    } else if (r == Res::kNotFound && !ident.empty() && ident.back() == '_') {
      FuncInfo* f = cur_func();
      if (f != nullptr && !f->class_qname.empty()) {
        f->pending_uses.push_back(
            PendingContainerUse{std::string(ident), false, std::string(t.text), t.line});
      }
    }
  }

  /// GUARDED_BY(mu) after a field declaration: attach the guard to the most
  /// recently declared field of the innermost class.
  void guard_reactor() {
    ++i_;  // past GUARDED_BY
    std::string guard;
    if (punct_at(i_, '(')) {
      std::size_t k = i_ + 1;
      while (tk(k) != nullptr && !punct_at(k, ')')) {
        if (tk(k)->ident()) {
          guard = std::string(tk(k)->text);  // last identifier in the argument
        }
        ++k;
      }
      skip_balanced('(', ')');
    }
    const int cls = innermost_class();
    if (cls < 0 || guard.empty() || last_decl_name_.empty()) return;
    ClassInfo& c = tu_.classes[static_cast<std::size_t>(cls)];
    FieldInfo& f = c.fields[last_decl_name_];
    if (f.name.empty()) {
      f.name = last_decl_name_;
      f.line = last_decl_line_;
    }
    f.guard = guard;
  }

  // -- declarations, calls, writes ------------------------------------------

  void declare(const std::string& name, int line) {
    last_decl_name_ = name;
    last_decl_line_ = line;
    const int cls = innermost_class();
    const bool in_fn = in_function();
    if (!in_fn && cls >= 0 && scopes_.back().kind == Scope::kClass) {
      ClassInfo& c = tu_.classes[static_cast<std::size_t>(cls)];
      FieldInfo& f = c.fields[name];
      f.name = name;
      f.container = pend_container_;
      f.pointer_key = pend_pointer_key_;
      f.type = pend_type_;
      f.is_callback = pend_callback_;
      f.is_thread = pend_thread_;
      f.line = line;
    } else {
      VarInfo v;
      v.name = name;
      v.kind = pend_container_;
      v.pointer_key = pend_pointer_key_;
      v.type = pend_type_;
      v.is_callback = pend_callback_;
      v.is_thread = pend_thread_;
      v.line = line;
      scopes_.back().vars[name] = std::move(v);
    }
  }

  [[nodiscard]] static std::string join_segs(const std::vector<std::string>& segs) {
    std::string out;
    for (const std::string& s : segs) {
      if (!out.empty()) out += "::";
      out += s;
    }
    return out;
  }

  /// Arm pend_assign_ when `=` (not `==`) directly follows the chain — the
  /// next callable seen becomes a CallbackBind into this slot.
  void maybe_arm_assign(const Chain& ch, bool member_access) {
    if (!in_function()) return;
    if (!punct_at(i_, '=') || punct_at(i_ + 1, '=')) return;
    pend_assign_.active = true;
    pend_assign_.target = ch.segs.back();
    pend_assign_.recv_type = member_access ? receiver_type(ch.first_begin) : "";
    pend_assign_.line = ch.line;
  }

  void process_chain(const Tok& first) {
    const bool member_access = preceded_by_member_access(code_, first.begin);
    const bool was_after_type = after_type_;
    Chain ch = read_chain();
    if (ch.segs.empty()) {
      ++i_;
      return;
    }
    record_taints(ch, member_access);

    const bool call_follows = punct_at(i_, '(');

    if (call_follows && !member_access && ch.segs.size() == 1 && was_after_type &&
        pend_mutexlock_) {
      // `MutexLock lock(mu_);` — the declared name's paren-init is the
      // acquisition site.
      lock_site(ch);
      return;
    }

    if (call_follows) {
      if (in_function()) {
        FuncInfo* f = cur_func();
        CallSite cs;
        cs.chain = ch.segs;
        cs.member_access = member_access;
        if (member_access) cs.recv_type = receiver_type(ch.first_begin);
        cs.held = held_mutexes();
        cs.line = ch.line;
        f->calls.push_back(std::move(cs));
        pending_call_name_ = join_segs(ch.segs);  // arms active_calls_ at '('
        pending_call_recv_ = member_access ? receiver_name(ch.first_begin) : "";
        // `std::thread t(<callable>)` — the paren-init of a thread-typed
        // declared name launches its callable argument on a new thread.
        // `threads_.emplace_back(<callable>)` resolves thread-ness through
        // the scope chain here, or at link time via recv_name.
        pending_call_spawns_ =
            (!member_access && ch.segs.size() == 1 && was_after_type &&
             pend_thread_) ||
            (member_access &&
             (ch.segs.back() == "emplace_back" || ch.segs.back() == "push_back") &&
             receiver_is_thread(ch.first_begin));
        after_type_ = false;
        clear_pending_type();
        return;  // '(' handled by the main loop as plain punctuation
      }
      parse_function_head(ch);
      return;
    }

    // Not a call. A `&function` (or bare function name) on the right of a
    // live assignment, or `&function` inside a call's argument list, binds
    // the named callable into the slot / parameter.
    if (in_function() && !was_after_type) {
      const std::size_t pv = prev_nonspace(code_, ch.first_begin);
      const bool addr_of = pv != std::string_view::npos && code_[pv] == '&' &&
                           !member_access;
      if (pend_assign_.active && !member_access) {
        CallbackBind b;
        b.kind = CallbackBind::Kind::kField;
        b.target = pend_assign_.target;
        b.recv_type = pend_assign_.recv_type;
        b.callee = join_segs(ch.segs);
        b.encl_qname = encl_qname();
        b.encl_class = encl_class();
        b.line = pend_assign_.line;
        tu_.binds.push_back(std::move(b));
        pend_assign_.active = false;
      } else if (!active_calls_.empty() &&
                 (addr_of || (active_calls_.back().spawns && !member_access))) {
        // `&fn` as a call argument — or any bare callable name handed to a
        // thread construction (`std::thread t(worker_fn);`).
        CallbackBind b;
        b.kind = CallbackBind::Kind::kArg;
        b.target = active_calls_.back().name;
        b.callee = join_segs(ch.segs);
        b.encl_qname = encl_qname();
        b.encl_class = encl_class();
        b.recv_name = active_calls_.back().recv_name;
        b.spawns_thread = active_calls_.back().spawns;
        b.line = ch.line;
        tu_.binds.push_back(std::move(b));
      }
    }

    // Declaration-name bookkeeping:
    if (!member_access && ch.segs.size() == 1 && was_after_type) {
      declare(ch.segs.back(), ch.line);
      after_type_ = false;
      clear_pending_type();
      maybe_arm_assign(ch, false);
      return;
    }

    // This chain may itself be the type of an upcoming declared name.
    after_type_ = !member_access;
    if (!member_access) {
      if (ch.container != ContainerKind::kNone) {
        pend_container_ = ch.container;
        pend_pointer_key_ = ch.pointer_key;
        pend_mutexlock_ = false;
      } else if (ch.is_mutexlock) {
        pend_mutexlock_ = true;
      } else if (ch.segs.size() > 1 || ch.is_mutex_like) {
        clear_pending_type();
      }
      pend_type_ = join_segs(ch.segs);
      pend_callback_ = is_callback_type(ch.segs.back());
      pend_thread_ = ch.is_thread;
    }

    maybe_arm_assign(ch, member_access);

    if (in_function() && !member_access && ch.segs.size() == 1 && !was_after_type) {
      maybe_pending_write(ch);
    }
  }

  void record_taints(const Chain& ch, bool member_access) {
    if (!in_function()) return;
    for (const std::string& s : ch.segs) {
      if (is_clock_name(s)) taint(s, ch.line, "wallclock");
    }
    const std::string& last = ch.segs.back();
    if (!member_access && is_rand_name(last)) taint(last, ch.line, "rand");
    if (last == "hardware_concurrency") {
      taint("hardware_concurrency", ch.line, nullptr);
    }
    if (!member_access && ch.segs.size() <= 2 && (last == "time" || last == "getenv") &&
        punct_at(i_, '(')) {
      taint(last + "(...)", ch.line, last == "time" ? "rand" : nullptr);
    }
  }

  /// `MutexLock name(expr);` with the Chain being the declared name and i_
  /// on the '('.
  void lock_site(const Chain& ch) {
    std::string acquired;
    std::size_t k = i_ + 1;
    int depth = 1;
    while (tk(k) != nullptr && depth > 0) {
      const Tok* t = tk(k);
      if (t->kind == TokKind::kPunct && t->text.size() == 1) {
        if (t->text[0] == '(') ++depth;
        if (t->text[0] == ')') {
          --depth;
          if (depth == 0) break;
        }
      }
      for (const char c : t->text) {
        if (!std::isspace(static_cast<unsigned char>(c))) acquired += c;
      }
      ++k;
    }
    skip_balanced('(', ')');
    after_type_ = false;
    clear_pending_type();
    if (acquired.empty()) return;
    FuncInfo* f = cur_func();
    if (f == nullptr) return;
    for (const std::string& h : held_mutexes()) {
      f->lock_edges.push_back(LockEdge{h, acquired, ch.line});
    }
    f->acquired.push_back(acquired);
    scopes_.back().locked.push_back(acquired);
    declare(ch.segs.back(), ch.line);  // the guard object itself is a local
  }

  /// Trailing-underscore identifier that resolves to nothing local:
  /// candidate field access, settled at link time. Writes feed the
  /// lock-guard rule; reads and writes both feed the shared-race lockset
  /// analysis.
  void maybe_pending_write(const Chain& ch) {
    const std::string& root = ch.segs.back();
    if (root.empty() || root.back() != '_') return;
    FuncInfo* f = cur_func();
    if (f == nullptr || f->class_qname.empty()) return;
    // A local (or global) declaration shadows the candidate field and ends
    // the analysis; resolving *as a class field* keeps it alive — that is
    // exactly the case the guard check exists for.
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->vars.count(root) != 0) return;
      if (it->kind == Scope::kClass) break;
    }

    // Walk the member/index chain after the root, then look for a mutating
    // operator (or a mutating member call).
    std::size_t pos = toks_[i_ - 1].end;  // just past the chain
    std::string last_member;
    bool write = false;
    // Prefix ++/--.
    const std::size_t pv = prev_nonspace(code_, ch.first_begin);
    if (pv != std::string_view::npos && pv > 0 &&
        ((code_[pv] == '+' && code_[pv - 1] == '+') ||
         (code_[pv] == '-' && code_[pv - 1] == '-'))) {
      write = true;
    }
    while (!write) {
      const std::size_t nx = next_nonspace(code_, pos);
      if (nx == std::string_view::npos) break;
      const char c = code_[nx];
      if (c == '.' || (c == '-' && nx + 1 < code_.size() && code_[nx + 1] == '>')) {
        std::size_t q = nx + (c == '.' ? 1 : 2);
        q = next_nonspace(code_, q);
        if (q == std::string_view::npos || !is_ident_start(code_[q])) break;
        std::size_t e = q;
        while (e < code_.size() && is_ident_char(code_[e])) ++e;
        last_member.assign(code_.substr(q, e - q));
        pos = e;
        continue;
      }
      if (c == '[') {
        int depth = 0;
        std::size_t e = nx;
        for (; e < code_.size(); ++e) {
          if (code_[e] == '[') ++depth;
          if (code_[e] == ']') {
            --depth;
            if (depth == 0) break;
          }
        }
        if (e >= code_.size()) break;
        pos = e + 1;
        // operator[] on a map/deque is itself a mutation-capable access; a
        // following '=' decides, so keep scanning.
        continue;
      }
      if (c == '=' && (nx + 1 >= code_.size() || code_[nx + 1] != '=')) {
        const std::size_t pb = prev_nonspace(code_, nx);
        const char pc = pb == std::string_view::npos ? ' ' : code_[pb];
        if (pc != '<' && pc != '>' && pc != '!') write = true;
        break;
      }
      if ((c == '+' || c == '-' || c == '*' || c == '/' || c == '%' || c == '&' ||
           c == '|' || c == '^') &&
          nx + 1 < code_.size() && code_[nx + 1] == '=') {
        write = true;
        break;
      }
      if ((c == '+' && nx + 1 < code_.size() && code_[nx + 1] == '+') ||
          (c == '-' && nx + 1 < code_.size() && code_[nx + 1] == '-')) {
        write = true;
        break;
      }
      if (c == '(' && is_mutating_member(last_member)) {
        write = true;
        break;
      }
      break;
    }
    f->pending_writes.push_back(
        PendingFieldWrite{root, held_in_current_function(), write, ch.line});
  }

  // -- lambdas --------------------------------------------------------------

  /// toks_[i_] is '['. Decide lambda-introducer vs subscript, and on a lambda
  /// build a synthetic function for the body so its calls and sources get
  /// their own call-graph node. The enclosing function gets a call edge to it
  /// (it holds the callable), and a live assignment target or enclosing call
  /// argument list records a CallbackBind for the value-flow analysis.
  bool try_lambda() {
    if (i_ > 0) {
      const Tok& p = toks_[i_ - 1];
      bool ok = false;
      if (p.kind == TokKind::kPunct && p.text.size() == 1) {
        ok = std::string_view("=,(;{?:&|!+-*/%<>").find(p.text[0]) !=
             std::string_view::npos;
      } else if (p.ident()) {
        ok = p.is("return") || p.is("co_return") || p.is("co_yield") ||
             p.is("else") || p.is("do");
      }
      if (!ok) return false;  // subscript or array declarator
    }
    std::size_t k = i_;
    int depth = 0;
    for (; k < toks_.size(); ++k) {
      if (toks_[k].kind == TokKind::kPunct && toks_[k].text.size() == 1) {
        if (toks_[k].text[0] == '[') ++depth;
        if (toks_[k].text[0] == ']') {
          --depth;
          if (depth == 0) break;
        }
      }
    }
    if (k + 1 >= toks_.size()) return false;
    if (!punct_at(k + 1, '(') && !punct_at(k + 1, '{')) return false;

    const std::size_t save = i_;
    const int line = toks_[i_].line;
    FuncInfo f;
    f.qname = "<lambda@" + tu_.file + ":" + std::to_string(line) + "#" +
              std::to_string(lambda_count_) + ">";
    f.name = f.qname;
    f.line = line;
    f.in_protected_scope = scope_is_protected();
    // A lambda inside a member function sees the enclosing class's fields
    // through the captured `this`: give it that class context so its field
    // accesses resolve in the lock-guard / shared-race analyses.
    f.class_qname = encl_class();
    if (f.class_qname.empty()) {
      const int cls = innermost_class();
      if (cls >= 0) f.class_qname = tu_.classes[static_cast<std::size_t>(cls)].qname;
    }

    i_ = k + 1;  // past ']'
    if (punct_at(i_, '(')) parse_params(f);
    while (i_ < toks_.size()) {  // mutable / noexcept(...) / -> ret, then body
      const Tok& t = toks_[i_];
      if (t.kind == TokKind::kPunct && t.text.size() == 1) {
        const char c = t.text[0];
        if (c == '{') break;
        if (c == '(') {
          skip_balanced('(', ')');
          continue;
        }
        if (c == ';' || c == ',' || c == ')' || c == '}') {
          i_ = save;
          return false;  // no body to model: treat '[' as plain punctuation
        }
      }
      ++i_;
    }
    if (i_ >= toks_.size()) {
      i_ = save;
      return false;
    }

    ++lambda_count_;
    if (FuncInfo* encl = cur_func()) {
      CallSite cs;
      cs.chain = {f.qname};
      cs.held = held_mutexes();
      cs.line = line;
      encl->calls.push_back(std::move(cs));
    }
    if (pend_assign_.active) {
      CallbackBind b;
      b.kind = CallbackBind::Kind::kField;
      b.target = pend_assign_.target;
      b.recv_type = pend_assign_.recv_type;
      b.callee = f.qname;
      b.encl_qname = encl_qname();
      b.encl_class = encl_class();
      b.line = pend_assign_.line;
      tu_.binds.push_back(std::move(b));
      pend_assign_.active = false;
    }
    if (!active_calls_.empty()) {
      CallbackBind b;
      b.kind = CallbackBind::Kind::kArg;
      b.target = active_calls_.back().name;
      b.callee = f.qname;
      b.encl_qname = encl_qname();
      b.encl_class = encl_class();
      b.recv_name = active_calls_.back().recv_name;
      b.spawns_thread = active_calls_.back().spawns;
      b.line = line;
      tu_.binds.push_back(std::move(b));
    }
    f.has_body = true;
    after_type_ = false;
    clear_pending_type();
    std::vector<VarInfo> params = f.params;
    tu_.funcs.push_back(std::move(f));
    push_scope(Scope::kFunction, "", -1, static_cast<int>(tu_.funcs.size()) - 1);
    for (VarInfo& p : params) {
      const std::string key = p.name;
      scopes_.back().vars[key] = std::move(p);
    }
    ++i_;  // consume the '{'
    return true;
  }

  // -- function heads -------------------------------------------------------

  /// toks_[i_] is on the '(' opening a parameter list. Collect (type, name)
  /// pairs tolerantly: per comma-separated parameter, the last single-segment
  /// chain is the name and the chain before it the type. Default arguments
  /// and nested parens/brackets/braces are skipped opaquely.
  void parse_params(FuncInfo& f) {
    ++i_;
    std::vector<std::string> chains;
    std::vector<char> cb;
    bool in_default = false;
    const auto flush = [&]() {
      if (chains.size() >= 2) {
        const std::string& nm = chains.back();
        if (!nm.empty() && nm.find(':') == std::string::npos) {
          VarInfo v;
          v.name = nm;
          v.type = chains[chains.size() - 2];
          v.is_callback = cb[chains.size() - 2] != 0;
          v.line = f.line;
          f.params.push_back(std::move(v));
        }
      }
      chains.clear();
      cb.clear();
      in_default = false;
    };
    while (i_ < toks_.size()) {
      const Tok& t = toks_[i_];
      if (t.kind == TokKind::kPunct && t.text.size() == 1) {
        const char c = t.text[0];
        if (c == '(') {
          skip_balanced('(', ')');
          continue;
        }
        if (c == '[') {
          skip_balanced('[', ']');
          continue;
        }
        if (c == '{') {
          skip_balanced('{', '}');
          continue;
        }
        if (c == ')') {
          flush();
          ++i_;
          return;
        }
        if (c == ',') {
          flush();
          ++i_;
          continue;
        }
        if (c == '=') {
          in_default = true;
          ++i_;
          continue;
        }
        ++i_;
        continue;
      }
      if (t.kind == TokKind::kNumber) {
        ++i_;
        continue;
      }
      if (in_default || is_skip_keyword(t.text)) {
        ++i_;
        continue;
      }
      if (is_type_keyword(t.text)) {
        chains.emplace_back(t.text);
        cb.push_back(0);
        ++i_;
        continue;
      }
      Chain ch = read_chain();
      if (ch.segs.empty()) {
        ++i_;
        continue;
      }
      std::string joined;
      for (const std::string& s : ch.segs) {
        if (!joined.empty()) joined += "::";
        joined += s;
      }
      chains.push_back(std::move(joined));
      cb.push_back(is_callback_type(ch.segs.back()) ? 1 : 0);
    }
  }

  void parse_function_head(const Chain& ch) {
    // i_ is on the '(' of the parameter list.
    for (const std::string& s : ch.segs) {
      if (s == "operator") {
        skip_body_or_semi();
        return;
      }
    }

    FuncInfo f;
    f.name = ch.segs.back();
    f.line = ch.line;
    const std::string prefix = scope_prefix();
    {
      std::string q = prefix;
      for (const std::string& s : ch.segs) {
        if (!q.empty()) q += "::";
        q += s;
      }
      f.qname = std::move(q);
    }
    const int cls = innermost_class();
    if (cls >= 0) {
      f.class_qname = prefix;  // prefix already ends with the class name
    } else if (ch.segs.size() > 1) {
      std::string q = prefix;
      for (std::size_t s = 0; s + 1 < ch.segs.size(); ++s) {
        if (!q.empty()) q += "::";
        q += ch.segs[s];
      }
      f.class_qname = std::move(q);
    }
    f.in_protected_scope = scope_is_protected();
    f.is_virtual = pend_virtual_;
    pend_virtual_ = false;
    parse_params(f);

    // Tolerant tail parse.
    while (i_ < toks_.size()) {
      const Tok& t = toks_[i_];
      if (t.ident()) {
        const std::string_view w = t.text;
        if (w == "override" || w == "final") {
          f.is_override = true;
          f.is_virtual = true;
          ++i_;
          continue;
        }
        if (w == "REQUIRES") {
          ++i_;
          if (punct_at(i_, '(')) {
            std::size_t k = i_ + 1;
            while (tk(k) != nullptr && !punct_at(k, ')')) {
              if (tk(k)->ident()) f.requires_mutexes.emplace_back(tk(k)->text);
              ++k;
            }
            skip_balanced('(', ')');
          }
          continue;
        }
        if (punct_at(i_ + 1, '(')) {
          // noexcept(...), ACQUIRE(...), RELEASE(...), EXCLUDES(...), other
          // annotation macros: skip name and arguments.
          ++i_;
          skip_balanced('(', ')');
          continue;
        }
        ++i_;  // const / noexcept / override / final / trailing return tokens
        continue;
      }
      if (t.kind == TokKind::kPunct) {
        const char c = t.text[0];
        if (c == ';') {
          ++i_;
          finish_function(std::move(f), false);
          return;
        }
        if (c == '{') {
          finish_function(std::move(f), true);
          return;  // finish_function consumed the '{' and pushed the scope
        }
        if (c == '=') {
          // `= default;` / `= delete;` / `= 0;` — a declaration.
          skip_to_semi();
          finish_function(std::move(f), false);
          return;
        }
        if (c == ':' && !punct_at(i_ + 1, ':')) {
          // Constructor initializer list: `: member(expr), member{expr} {`.
          ++i_;
          while (i_ < toks_.size()) {
            while (i_ < toks_.size() && (toks_[i_].ident() || punct_at(i_, ':'))) ++i_;
            if (punct_at(i_, '(')) {
              skip_balanced('(', ')');
            } else if (punct_at(i_, '{')) {
              // Either a braced member init or the body itself. A body is
              // preceded by ')' or '}'; a member init directly follows its
              // member name (an identifier).
              if (i_ > 0 && toks_[i_ - 1].ident()) {
                skip_balanced('{', '}');
              } else {
                break;
              }
            } else {
              break;
            }
            if (punct_at(i_, ',')) {
              ++i_;
              continue;
            }
            break;
          }
          continue;  // outer loop sees '{' (body) or bails
        }
        if (c == '-' || c == '>' || c == '&' || c == '*' || c == '<' || c == ')' ||
            c == '[' || c == ']') {
          ++i_;  // trailing return type and ref-qualifiers
          continue;
        }
        // ',' or anything else: this was not a function after all
        // (e.g. `Foo x(1), y(2);`). Abandon.
        skip_to_semi();
        after_type_ = false;
        clear_pending_type();
        return;
      }
      ++i_;
    }
  }

  void finish_function(FuncInfo f, bool has_body) {
    f.has_body = has_body;
    after_type_ = false;
    clear_pending_type();
    std::vector<VarInfo> params = f.params;
    tu_.funcs.push_back(std::move(f));
    if (has_body) {
      push_scope(Scope::kFunction, "", -1, static_cast<int>(tu_.funcs.size()) - 1);
      // Parameters are in scope inside the body: they resolve receivers for
      // dispatch (`sink->emit()`), shadow fields, and carry callback types.
      for (VarInfo& p : params) {
        const std::string key = p.name;
        scopes_.back().vars[key] = std::move(p);
      }
      ++i_;  // consume the '{'
    }
  }
};

}  // namespace

TuIndex parse_tu(const std::string& file, std::string_view source) {
  TuIndex tu;
  tu.file = file;
  tu.prep = prepare(source);
  tu.toks = tokenize(tu.prep.code);
  Parser(tu).run();
  return tu;
}

}  // namespace hpcslint
