#pragma once
// A sysfs-like tunables registry (paper §IV-B: "the heuristic can be tuned by
// the user through specific entries in the sysfs filesystem"). Attributes are
// integer-valued, path-addressed, and optionally range-checked.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hpcs::kern {

class Sysfs {
 public:
  using Getter = std::function<std::int64_t()>;
  using Setter = std::function<bool(std::int64_t)>;

  /// Register an attribute with custom accessors. Overwrites silently so a
  /// re-configured kernel can re-register.
  void register_attr(const std::string& path, Getter get, Setter set);

  /// Register an attribute backed directly by an integer variable, clamped
  /// to [min_value, max_value].
  void register_int(const std::string& path, std::int64_t* target, std::int64_t min_value,
                    std::int64_t max_value);

  [[nodiscard]] std::optional<std::int64_t> read(const std::string& path) const;

  /// Returns false if the path is unknown or the value was rejected.
  bool write(const std::string& path, std::int64_t value);

  [[nodiscard]] bool exists(const std::string& path) const { return attrs_.count(path) > 0; }
  [[nodiscard]] std::vector<std::string> list() const;

  /// Run `hook` before every write to a registered path. The kernel replays
  /// the ticks its dormant CPUs skipped, so a tunable change applies from
  /// now on only, exactly as with every tick run.
  void set_write_hook(std::function<void()> hook) { write_hook_ = std::move(hook); }

 private:
  struct Attr {
    Getter get;
    Setter set;
  };
  std::map<std::string, Attr> attrs_;
  std::function<void()> write_hook_;
};

}  // namespace hpcs::kern
