#include "common/log.h"

#include <cctype>
#include <cstdio>
#include <cstring>

namespace hpcs {
namespace {
LogLevel g_level = LogLevel::kWarn;

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level = level; }
LogLevel log_level() { return g_level; }

bool parse_log_level(const char* s, LogLevel& out) {
  if (s == nullptr || *s == '\0') return false;
  std::string lower;
  for (const char* p = s; *p != '\0'; ++p) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (lower == "debug" || lower == "0") {
    out = LogLevel::kDebug;
  } else if (lower == "info" || lower == "1") {
    out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning" || lower == "2") {
    out = LogLevel::kWarn;
  } else if (lower == "error" || lower == "3") {
    out = LogLevel::kError;
  } else if (lower == "off" || lower == "none" || lower == "4") {
    out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

void log_message(LogLevel level, const char* tag, const char* fmt, ...) {
  if (level < g_level) return;
  std::fprintf(stderr, "[%s][%s] ", level_name(level), tag);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
  // Errors are rare and usually precede an abort; make sure they land even
  // if stderr is block-buffered (e.g. redirected to a file in CI).
  if (level >= LogLevel::kError) std::fflush(stderr);
}

}  // namespace hpcs
