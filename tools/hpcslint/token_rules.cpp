// Token-pattern rules, carried over from hpcslint v1 byte for byte in
// behaviour: same heuristics, same messages, same ALLOW semantics. The only
// difference is mechanical — the token stream now also contains punctuation
// and number tokens (the parser needs them), which these rules simply never
// match on. unordered-iter is gone from this file: it became scope-resolving
// and lives in parser.cpp / project.cpp.

#include "rules.h"

#include <unordered_set>

namespace hpcslint {

// wallclock: any mention of a wall/monotonic clock type. Simulated time is
// the only clock the simulation may observe; benches that legitimately time
// themselves carry an ALLOW.
void rule_wallclock(const std::vector<Tok>& toks, Sink& sink) {
  for (const Tok& t : toks) {
    if (t.text == "system_clock" || t.text == "steady_clock" ||
        t.text == "high_resolution_clock") {
      sink.report("wallclock", t.line,
                  "wall-clock read (" + std::string(t.text) +
                      "): simulation code must use SimTime; benches may "
                      "HPCSLINT-ALLOW(wallclock) their timing harness");
    }
  }
}

// rand: ambient (non-seeded) randomness. Every stochastic draw must come
// from an hpcs::Rng seeded by the experiment config, or sweeps stop
// reproducing. `time` only fires when called (`time(`) and not as a member
// (`x.time(...)`).
void rule_rand(std::string_view code, const std::vector<Tok>& toks, Sink& sink) {
  static const std::unordered_set<std::string_view> kBanned = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "random_device"};
  for (const Tok& t : toks) {
    if (!t.ident()) continue;
    if (kBanned.count(t.text) != 0) {
      sink.report("rand", t.line,
                  "ambient randomness (" + std::string(t.text) +
                      "): draw from a config-seeded hpcs::Rng instead");
      continue;
    }
    if (t.text == "time" && !preceded_by_member_access(code, t.begin)) {
      const std::size_t nx = next_nonspace(code, t.end);
      if (nx != std::string_view::npos && code[nx] == '(') {
        sink.report("rand", t.line,
                    "time(...) call: wall-clock seeds break run reproducibility");
      }
    }
  }
}

// pointer-key: ordering keyed on a pointer value (map/set key, or a
// less/greater comparator instantiated on a pointer) depends on allocation
// addresses, so two runs — let alone two machines — disagree. Key by pid,
// rank, slot id, or another value-stable identity instead. This is the
// declaration-site half of the rule; iteration over a pointer-keyed
// container is detected by the symbol-resolving layer.
void rule_pointer_key(std::string_view code, const std::vector<Tok>& toks, Sink& sink) {
  static const std::unordered_set<std::string_view> kKeyed = {
      "map",      "set",      "multimap",          "multiset", "unordered_map",
      "unordered_set", "unordered_multimap", "unordered_multiset", "less", "greater"};
  for (const Tok& t : toks) {
    if (!t.ident() || kKeyed.count(t.text) == 0) continue;
    if (preceded_by_member_access(code, t.begin)) continue;  // .map(...) member call
    const std::size_t open = next_nonspace(code, t.end);
    if (open == std::string_view::npos || code[open] != '<') continue;
    const std::string arg = first_template_arg(code, open);
    if (!arg.empty() && arg.back() == '*') {
      sink.report("pointer-key", t.line,
                  std::string(t.text) + "<" + arg + ", ...>: pointer values are not a "
                      "deterministic ordering key; key by a stable id instead");
    }
  }
}

// hot-alloc: inside // HPCS_HOT_BEGIN .. // HPCS_HOT_END regions, no
// allocation, no type-erased std::function construction and no standard
// container declared by value (a `std::vector<int> loads(n)` allocates on
// every pass; references and pointers to containers do not). These regions
// are the event-loop fast paths docs/performance.md documents as
// allocation-free; this rule keeps them that way. Non-allocating placement
// new carries an ALLOW at the site.
namespace {

bool by_value_container(std::string_view code, const std::vector<Tok>& toks, std::size_t i) {
  static const std::unordered_set<std::string_view> kContainers = {
      "vector",        "deque",         "list",           "forward_list",       "string",
      "basic_string",  "map",           "multimap",       "set",                "multiset",
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
      "queue",         "priority_queue", "stack"};
  if (kContainers.count(toks[i].text) == 0 || i < 3 || !toks[i - 1].is(":") ||
      !toks[i - 2].is(":") || !toks[i - 3].is("std")) {
    return false;
  }
  std::size_t nx = next_nonspace(code, toks[i].end);
  if (nx != std::string_view::npos && code[nx] == '<') {
    const std::size_t past = match_angles(code, nx);
    if (past == std::string_view::npos) return false;
    nx = next_nonspace(code, past);
  }
  if (nx == std::string_view::npos) return false;
  // A name (declaration) or `(`/`{` (a temporary) means a container object;
  // `&`, `*`, `::` (a nested name), `>`, `,`, `)` and `;` do not.
  const char c = code[nx];
  return is_ident_start(c) || c == '(' || c == '{';
}

}  // namespace

void rule_hot_alloc(std::string_view code, const std::vector<Tok>& toks, Sink& sink) {
  static const std::unordered_set<std::string_view> kAlloc = {
      "new", "make_unique", "make_shared", "malloc", "calloc", "realloc"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (!t.ident() || !sink.hot(t.line)) continue;
    if (kAlloc.count(t.text) != 0) {
      sink.report("hot-alloc", t.line,
                  "allocation (" + std::string(t.text) +
                      ") inside an HPCS_HOT region (docs/performance.md)");
      continue;
    }
    if (t.text == "function") {
      const std::size_t p = prev_nonspace(code, t.begin);
      if (p != std::string_view::npos && code[p] == ':') {
        sink.report("hot-alloc", t.line,
                    "std::function inside an HPCS_HOT region: use "
                    "sim::InplaceFunction (non-allocating) instead");
      }
      continue;
    }
    if (by_value_container(code, toks, i)) {
      sink.report("hot-alloc", t.line,
                  "std::" + std::string(t.text) +
                      " held by value inside an HPCS_HOT region: it allocates; use "
                      "fixed-size storage or a reference to long-lived storage");
    }
  }
}

// missing-override: in any class whose base clause names SchedClass, every
// scheduler hook declaration must say `override` (or `final`) — a hook that
// merely shadows compiles fine and then silently never runs. The compile-time
// SchedClassImpl concept (kernel/sched_class.h) catches signature drift;
// this rule catches the shadowing shape the concept cannot distinguish.
void rule_missing_override(std::string_view code, const std::vector<Tok>& toks, Sink& sink) {
  static const std::unordered_set<std::string_view> kHooks = {
      "name",     "owns",          "make_rq",        "enqueue",       "dequeue",
      "pick_next", "put_prev",     "task_tick",      "wakeup_preempt", "yield",
      "steal_candidate", "wants_balance", "wakeup_cost"};

  for (std::size_t ti = 0; ti < toks.size(); ++ti) {
    if (toks[ti].text != "class" && toks[ti].text != "struct") continue;
    if (ti > 0 && toks[ti - 1].text == "enum") continue;
    if (ti + 1 >= toks.size()) continue;

    // Scan the class head: find '{' or ';' and remember whether a base
    // clause in between names SchedClass.
    std::size_t head = toks[ti].end;
    std::size_t body_open = std::string_view::npos;
    bool derives_sched_class = false;
    {
      int angle = 0;
      bool in_bases = false;
      for (std::size_t i = head; i < code.size(); ++i) {
        const char c = code[i];
        if (c == '<') {
          ++angle;
        } else if (c == '>') {
          if (angle > 0) --angle;
        } else if (c == ';' && angle == 0) {
          break;  // forward declaration
        } else if (c == '{' && angle == 0) {
          body_open = i;
          break;
        } else if (c == ':' && angle == 0) {
          const bool dbl = (i + 1 < code.size() && code[i + 1] == ':') ||
                           (i > 0 && code[i - 1] == ':');
          if (!dbl) {
            in_bases = true;
          } else {
            ++i;  // skip '::'
          }
        } else if (in_bases && is_ident_start(c)) {
          std::size_t e = i;
          while (e < code.size() && is_ident_char(code[e])) ++e;
          if (code.substr(i, e - i) == "SchedClass") derives_sched_class = true;
          i = e - 1;
        }
      }
    }
    if (!derives_sched_class || body_open == std::string_view::npos) continue;

    // Walk the class body; consider hook-named declarations at depth 1.
    int depth = 0;
    for (std::size_t i = body_open; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        if (depth == 0) break;
      } else if (depth == 1 && is_ident_start(c)) {
        std::size_t e = i;
        while (e < code.size() && is_ident_char(code[e])) ++e;
        const std::string_view word = code.substr(i, e - i);
        if (kHooks.count(word) == 0) {
          i = e - 1;
          continue;
        }
        const std::size_t open = next_nonspace(code, e);
        if (open == std::string_view::npos || code[open] != '(') {
          i = e - 1;
          continue;
        }
        // Find the parameter list's ')' then scan the declaration tail.
        int paren = 0;
        std::size_t close = std::string_view::npos;
        for (std::size_t j = open; j < code.size(); ++j) {
          if (code[j] == '(') {
            ++paren;
          } else if (code[j] == ')') {
            --paren;
            if (paren == 0) {
              close = j;
              break;
            }
          }
        }
        if (close == std::string_view::npos) break;
        bool has_override = false;
        std::size_t tail_end = close;
        for (std::size_t j = close + 1; j < code.size(); ++j) {
          const char cj = code[j];
          if (cj == ';' || cj == '{') {
            tail_end = j;
            break;
          }
          if (is_ident_start(cj)) {
            std::size_t we = j;
            while (we < code.size() && is_ident_char(code[we])) ++we;
            const std::string_view w = code.substr(j, we - j);
            if (w == "override" || w == "final") has_override = true;
            j = we - 1;
          }
        }
        if (!has_override) {
          int line = 1;
          for (std::size_t j = 0; j < i; ++j) {
            if (code[j] == '\n') ++line;
          }
          sink.report("missing-override", line,
                      "SchedClass hook '" + std::string(word) +
                          "' declared without override: a signature mismatch would "
                          "silently shadow instead of overriding");
        }
        i = tail_end;
      }
    }
  }
}

// tracepoint-name: the id argument of an HPCS_TRACEPOINT record site must be
// a kTp* enumerator (optionally namespace/enum qualified) — a compile-time
// constant from the tracepoint catalogue in obs/tracepoint.h. A runtime
// expression there would silently decouple the record site from the
// per-tracepoint hit counters (whose registration order mirrors the
// catalogue), and make the set of tracepoints ungreppable.
void rule_tracepoint_name(std::string_view code, const std::vector<Tok>& toks, Sink& sink) {
  for (std::size_t ti = 0; ti < toks.size(); ++ti) {
    if (toks[ti].text != "HPCS_TRACEPOINT") continue;
    // Skip the macro's own definition (`#define HPCS_TRACEPOINT(...)`).
    if (ti > 0 && toks[ti - 1].text == "define") continue;
    const std::size_t open = next_nonspace(code, toks[ti].end);
    if (open == std::string_view::npos || code[open] != '(') continue;

    // Extract the second top-level argument of the invocation.
    int paren = 0;
    int commas = 0;
    std::size_t arg_begin = std::string_view::npos;
    std::size_t arg_end = std::string_view::npos;
    for (std::size_t i = open; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '(') {
        ++paren;
      } else if (c == ')') {
        --paren;
        if (paren == 0) {
          if (commas == 1) arg_end = i;
          break;
        }
      } else if (c == ',' && paren == 1) {
        ++commas;
        if (commas == 1) {
          arg_begin = i + 1;
        } else if (commas == 2) {
          arg_end = i;
          break;
        }
      }
    }

    // Valid shape: `(qualifier::)* kTp<ident>` with nothing else.
    bool ok = false;
    if (arg_begin != std::string_view::npos && arg_end != std::string_view::npos) {
      std::string flat;
      for (std::size_t i = arg_begin; i < arg_end; ++i) {
        if (!std::isspace(static_cast<unsigned char>(code[i]))) flat.push_back(code[i]);
      }
      std::size_t pos = 0;
      bool segments_ok = !flat.empty();
      std::size_t q;
      while (segments_ok && (q = flat.find("::", pos)) != std::string::npos) {
        segments_ok = q > pos && is_ident_start(flat[pos]);
        for (std::size_t i = pos; segments_ok && i < q; ++i) {
          segments_ok = is_ident_char(flat[i]);
        }
        pos = q + 2;
      }
      if (segments_ok) {
        const std::string last = flat.substr(pos);
        ok = last.size() > 3 && last.compare(0, 3, "kTp") == 0 && last != "kTpCount";
        for (std::size_t i = 0; ok && i < last.size(); ++i) {
          ok = is_ident_char(last[i]);
        }
      }
    }
    if (!ok) {
      sink.report("tracepoint-name", toks[ti].line,
                  "HPCS_TRACEPOINT id must be a kTp* enumerator from the tracepoint "
                  "catalogue (obs/tracepoint.h), not a runtime expression");
    }
  }
}

void run_token_rules(const Prepared& prep, const std::vector<Tok>& toks, Sink& sink) {
  rule_wallclock(toks, sink);
  rule_rand(prep.code, toks, sink);
  rule_pointer_key(prep.code, toks, sink);
  rule_hot_alloc(prep.code, toks, sink);
  rule_missing_override(prep.code, toks, sink);
  rule_tracepoint_name(prep.code, toks, sink);
}

}  // namespace hpcslint
