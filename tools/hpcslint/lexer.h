#pragma once
// hpcslint front end, stage 1: source preparation and tokenization.
//
// prepare() blanks comments and literal contents in place (preserving length
// and line structure, so byte offsets still map to lines) while harvesting
// the lint directives that live in comments: `HPCSLINT-ALLOW(rule,...)` and
// the `HPCS_HOT_BEGIN`/`HPCS_HOT_END` region markers. tokenize() then turns
// the blanked code into a flat token stream — identifiers, numbers, and
// punctuation — which the token-pattern rules (token_rules.cpp) consume.

#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace hpcslint {

inline bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
inline bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Blanked source plus the per-line directive maps.
struct Prepared {
  std::string code;  ///< same length as the input; only lintable code remains
  std::vector<std::set<std::string, std::less<>>> allow;  ///< per line, 1-based
  std::vector<char> hot;                                  ///< per line, 1-based

  /// True when `rule` is ALLOW'd on `line` (trailing or standalone form).
  [[nodiscard]] bool allowed(const char* rule, int line) const {
    const auto l = static_cast<std::size_t>(line);
    return l < allow.size() && allow[l].count(rule) != 0;
  }
};

[[nodiscard]] Prepared prepare(std::string_view src);

enum class TokKind : unsigned char { kIdent, kNumber, kPunct };

struct Tok {
  std::size_t begin = 0;
  std::size_t end = 0;
  int line = 0;
  TokKind kind = TokKind::kIdent;
  std::string_view text;

  [[nodiscard]] bool is(std::string_view s) const { return text == s; }
  [[nodiscard]] bool ident() const { return kind == TokKind::kIdent; }
};

/// Full token stream over blanked code. Identifiers and numbers are single
/// tokens; punctuation comes out one character at a time (rules match
/// two-char operators like `::` by peeking).
[[nodiscard]] std::vector<Tok> tokenize(std::string_view code);

// Char-level context helpers over the blanked code, shared by the
// token-pattern rules.
[[nodiscard]] std::size_t prev_nonspace(std::string_view code, std::size_t pos);
[[nodiscard]] std::size_t next_nonspace(std::string_view code, std::size_t pos);
/// True when the char before `pos` (skipping whitespace) ends a member
/// access: `.` or `->`.
[[nodiscard]] bool preceded_by_member_access(std::string_view code, std::size_t pos);
/// From `open` (position of '<'), return the position just past the matching
/// '>', or npos. Tracks nested <> and () so `map<int, pair<a,b>>` works; a
/// stray comparison operator simply fails the match.
[[nodiscard]] std::size_t match_angles(std::string_view code, std::size_t open);
/// First template argument between '<' at `open` and its matching '>',
/// whitespace-trimmed; empty when the angles don't match.
[[nodiscard]] std::string first_template_arg(std::string_view code, std::size_t open);

}  // namespace hpcslint
