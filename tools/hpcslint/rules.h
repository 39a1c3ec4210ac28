#pragma once
// Internal interface between the lint driver (hpcslint.cpp) and the
// token-pattern rule implementations (token_rules.cpp), which match the
// prepared token stream of one translation unit.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hpcslint.h"
#include "lexer.h"

namespace hpcslint {

/// Findings sink with ALLOW filtering and hot-region lookup.
class Sink {
 public:
  Sink(const std::string& file, const Prepared& prep, std::vector<Finding>& out)
      : file_(file), prep_(prep), out_(out) {}

  void report(const char* rule, int line, std::string message) {
    if (prep_.allowed(rule, line)) return;
    out_.push_back(Finding{file_, line, rule, std::move(message)});
  }

  [[nodiscard]] bool hot(int line) const {
    const auto l = static_cast<std::size_t>(line);
    return l < prep_.hot.size() && prep_.hot[l] != 0;
  }

 private:
  const std::string& file_;
  const Prepared& prep_;
  std::vector<Finding>& out_;
};

void rule_wallclock(const std::vector<Tok>& toks, Sink& sink);
void rule_rand(std::string_view code, const std::vector<Tok>& toks, Sink& sink);
void rule_unordered(const std::vector<Tok>& toks, Sink& sink);
void rule_pointer_key(std::string_view code, const std::vector<Tok>& toks, Sink& sink);
void rule_hot_alloc(std::string_view code, const std::vector<Tok>& toks, Sink& sink);
void rule_missing_override(std::string_view code, const std::vector<Tok>& toks, Sink& sink);
void rule_tracepoint_name(std::string_view code, const std::vector<Tok>& toks, Sink& sink);

/// Run every token rule over one prepared TU.
void run_token_rules(const Prepared& prep, const std::vector<Tok>& toks, Sink& sink);

}  // namespace hpcslint
