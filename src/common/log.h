#pragma once
// Minimal leveled logger. The simulator is deterministic, so logs double as a
// debugging trace; they are off by default to keep benches quiet.

#include <cstdarg>
#include <string>

namespace hpcs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Parse "debug"/"info"/"warn"/"error"/"off" (case-insensitive; numeric 0-4
/// also accepted). Returns false and leaves `out` untouched on junk input.
[[nodiscard]] bool parse_log_level(const char* s, LogLevel& out);

/// printf-style logging. `tag` names the emitting module (e.g. "cfs").
void log_message(LogLevel level, const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

#define HPCS_LOG_DEBUG(tag, ...) ::hpcs::log_message(::hpcs::LogLevel::kDebug, tag, __VA_ARGS__)
#define HPCS_LOG_INFO(tag, ...) ::hpcs::log_message(::hpcs::LogLevel::kInfo, tag, __VA_ARGS__)
#define HPCS_LOG_WARN(tag, ...) ::hpcs::log_message(::hpcs::LogLevel::kWarn, tag, __VA_ARGS__)
#define HPCS_LOG_ERROR(tag, ...) ::hpcs::log_message(::hpcs::LogLevel::kError, tag, __VA_ARGS__)

}  // namespace hpcs
