#include "lexer.h"

#include <algorithm>
#include <utility>

namespace hpcslint {
namespace {

constexpr std::string_view kAllowDirective = "HPCSLINT-ALLOW(";
constexpr std::string_view kHotBegin = "HPCS_HOT_BEGIN";
constexpr std::string_view kHotEnd = "HPCS_HOT_END";

/// True when position `i` (a single quote) sits inside a pp-number: the
/// maximal identifier/quote run ending just before `i` starts with a digit
/// at a token boundary. Distinguishes the C++14 digit separator in
/// 1'000'000 and 0xFF'FF from the char literal in u8'a' (whose run starts
/// with 'u') and from a quote after an identifier (foo'x').
bool in_numeric_literal(std::string_view src, std::size_t i) {
  std::size_t s = i;
  while (s > 0 && (is_ident_char(src[s - 1]) || src[s - 1] == '\'' ||
                   src[s - 1] == '.')) {
    --s;
  }
  return s < i && std::isdigit(static_cast<unsigned char>(src[s])) != 0;
}

/// True when the quote at `i` opens a raw string literal: the identifier
/// run ending at `i` is exactly one of the raw-string prefixes. A plain
/// identifier that merely ends in R (FOOBAR"x") is not a raw string.
bool is_raw_string_prefix(std::string_view src, std::size_t i) {
  if (i == 0 || src[i - 1] != 'R') return false;
  std::size_t s = i;
  while (s > 0 && is_ident_char(src[s - 1])) --s;
  const std::string_view prefix = src.substr(s, i - s);
  return prefix == "R" || prefix == "uR" || prefix == "u8R" ||
         prefix == "UR" || prefix == "LR";
}

}  // namespace

Prepared prepare(std::string_view src) {
  Prepared p;
  p.code.assign(src.begin(), src.end());

  struct CommentNote {
    int line = 0;
    bool standalone = false;  ///< no code precedes the comment on its line
    std::vector<std::string> allow_rules;
    bool hot_begin = false;
    bool hot_end = false;
  };
  std::vector<CommentNote> notes;

  auto note_comment = [&notes](std::string_view text, int comment_line, bool standalone) {
    CommentNote note;
    note.line = comment_line;
    note.standalone = standalone;
    for (std::size_t a = text.find(kAllowDirective); a != std::string_view::npos;
         a = text.find(kAllowDirective, a + 1)) {
      std::size_t pos = a + kAllowDirective.size();
      std::string rule;
      while (pos < text.size() && text[pos] != ')') {
        const char c = text[pos++];
        if (c == ',') {
          if (!rule.empty()) note.allow_rules.push_back(std::move(rule));
          rule.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
          rule += c;
        }
      }
      if (!rule.empty()) note.allow_rules.push_back(std::move(rule));
    }
    note.hot_begin = text.find(kHotBegin) != std::string_view::npos;
    // HPCS_HOT_END shares the HPCS_HOT prefix — check END explicitly so
    // BEGIN does not match it.
    note.hot_end = text.find(kHotEnd) != std::string_view::npos;
    if (note.hot_begin && note.hot_end) note.hot_begin = false;  // one marker per comment
    if (!note.allow_rules.empty() || note.hot_begin || note.hot_end) {
      notes.push_back(std::move(note));
    }
  };

  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool line_has_code = false;
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      line_has_code = false;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i;
      const int comment_line = line;
      const bool standalone = !line_has_code;
      while (i < n && src[i] != '\n') p.code[i++] = ' ';
      note_comment(src.substr(start, i - start), comment_line, standalone);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start = i;
      const int comment_line = line;
      const bool standalone = !line_has_code;
      p.code[i] = p.code[i + 1] = ' ';
      i += 2;
      while (i < n && !(src[i] == '*' && i + 1 < n && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          ++line;
        } else {
          p.code[i] = ' ';
        }
        ++i;
      }
      if (i < n) {
        p.code[i] = p.code[i + 1] = ' ';
        i += 2;
      }
      note_comment(src.substr(start, std::min(i, n) - start), comment_line, standalone);
      continue;
    }
    if (c == '"') {
      line_has_code = true;
      const bool raw = is_raw_string_prefix(src, i);
      if (raw) {
        std::size_t d = i + 1;
        std::string delim;
        while (d < n && src[d] != '(' && src[d] != '\n') delim += src[d++];
        const std::string closer = ")" + delim + "\"";
        std::size_t end = src.find(closer, d);
        end = end == std::string_view::npos ? n : end + closer.size();
        for (std::size_t j = i; j < end; ++j) {
          if (src[j] == '\n') {
            ++line;
          } else {
            p.code[j] = ' ';
          }
        }
        i = end;
        continue;
      }
      ++i;
      while (i < n && src[i] != '"' && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n) {
          p.code[i] = ' ';
          ++i;
        }
        p.code[i] = ' ';
        ++i;
      }
      if (i < n && src[i] == '"') ++i;
      continue;
    }
    if (c == '\'') {
      // Digit separator (1'000'000, 0xFF'FF) vs. char literal: a quote is a
      // separator only when it sits inside a pp-number — a prev-digit /
      // next-xdigit peek misreads 0xFF'FF (prev is a hex letter) and u8'a'
      // (prev '8' is a digit but the token is a char literal).
      const bool separator =
          in_numeric_literal(src, i) && i + 1 < n &&
          std::isalnum(static_cast<unsigned char>(src[i + 1])) != 0;
      if (separator) {
        ++i;
        continue;
      }
      line_has_code = true;
      ++i;
      while (i < n && src[i] != '\'' && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n) {
          p.code[i] = ' ';
          ++i;
        }
        p.code[i] = ' ';
        ++i;
      }
      if (i < n && src[i] == '\'') ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) == 0) line_has_code = true;
    ++i;
  }

  const int total_lines = line + 1;
  p.allow.assign(static_cast<std::size_t>(total_lines) + 1, {});
  p.hot.assign(static_cast<std::size_t>(total_lines) + 1, 0);

  bool hot = false;
  int hot_from = 0;
  auto mark = [total_lines](std::vector<char>& map, int from, int to) {
    to = std::min(to, total_lines);
    for (int l = std::max(from, 1); l <= to; ++l) {
      map[static_cast<std::size_t>(l)] = 1;
    }
  };
  for (const CommentNote& note : notes) {
    for (const std::string& rule : note.allow_rules) {
      p.allow[static_cast<std::size_t>(note.line)].insert(rule);
      // A standalone ALLOW comment suppresses on the line that follows it.
      if (note.standalone && note.line + 1 < static_cast<int>(p.allow.size())) {
        p.allow[static_cast<std::size_t>(note.line) + 1].insert(rule);
      }
    }
    if (note.hot_begin && !hot) {
      hot = true;
      hot_from = note.line;
    } else if (note.hot_end && hot) {
      hot = false;
      mark(p.hot, hot_from, note.line);
    }
  }
  if (hot) mark(p.hot, hot_from, total_lines);  // unclosed region runs to EOF
  return p;
}

std::vector<Tok> tokenize(std::string_view code) {
  std::vector<Tok> out;
  int line = 1;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (is_ident_start(c)) {
      const std::size_t begin = i;
      while (i < code.size() && is_ident_char(code[i])) ++i;
      out.push_back(Tok{begin, i, line, TokKind::kIdent, code.substr(begin, i - begin)});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      const std::size_t begin = i;
      // A quote inside a number is a C++14 digit separator — keep 1'000'000
      // a single kNumber token instead of fragmenting at each quote.
      while (i < code.size() &&
             (is_ident_char(code[i]) || code[i] == '.' ||
              (code[i] == '\'' && i + 1 < code.size() &&
               std::isalnum(static_cast<unsigned char>(code[i + 1])) != 0))) {
        ++i;
      }
      out.push_back(Tok{begin, i, line, TokKind::kNumber, code.substr(begin, i - begin)});
      continue;
    }
    out.push_back(Tok{i, i + 1, line, TokKind::kPunct, code.substr(i, 1)});
    ++i;
  }
  return out;
}

std::size_t prev_nonspace(std::string_view code, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) return pos;
  }
  return std::string_view::npos;
}

std::size_t next_nonspace(std::string_view code, std::size_t pos) {
  while (pos < code.size()) {
    if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) return pos;
    ++pos;
  }
  return std::string_view::npos;
}

bool preceded_by_member_access(std::string_view code, std::size_t pos) {
  const std::size_t p = prev_nonspace(code, pos);
  if (p == std::string_view::npos) return false;
  if (code[p] == '.') return true;
  return code[p] == '>' && p > 0 && code[p - 1] == '-';
}

std::size_t match_angles(std::string_view code, std::size_t open) {
  int angle = 0;
  int paren = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<') {
      ++angle;
    } else if (c == '>') {
      if (i > 0 && code[i - 1] == '-') continue;  // ->
      --angle;
      if (angle == 0) return i + 1;
    } else if (c == '(') {
      ++paren;
    } else if (c == ')') {
      if (paren == 0) return std::string_view::npos;
      --paren;
    } else if (c == ';' || c == '{') {
      return std::string_view::npos;  // was a comparison, not a template
    }
  }
  return std::string_view::npos;
}

std::string first_template_arg(std::string_view code, std::size_t open) {
  int angle = 0;
  int paren = 0;
  bool complete = false;  // saw the first arg's terminator (',' or final '>')
  std::string arg;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<') {
      ++angle;
      if (angle == 1) continue;
    } else if (c == '>') {
      if (i > 0 && code[i - 1] == '-') {
        // '->' inside an argument; fall through and record it
      } else {
        --angle;
        if (angle == 0) {
          complete = true;
          break;
        }
      }
    } else if (c == '(') {
      ++paren;
    } else if (c == ')') {
      --paren;
    } else if (c == ',' && angle == 1 && paren == 0) {
      complete = true;
      break;
    } else if (c == ';' || c == '{') {
      return {};
    }
    if (angle >= 1) arg += c;
  }
  while (!arg.empty() && std::isspace(static_cast<unsigned char>(arg.back())) != 0) {
    arg.pop_back();
  }
  while (!arg.empty() && std::isspace(static_cast<unsigned char>(arg.front())) != 0) {
    arg.erase(arg.begin());
  }
  return complete ? arg : std::string{};
}

}  // namespace hpcslint
