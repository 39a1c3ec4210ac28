#include "kernel/sysfs.h"

#include <algorithm>

namespace hpcs::kern {

void Sysfs::register_attr(const std::string& path, Getter get, Setter set) {
  attrs_[path] = Attr{std::move(get), std::move(set)};
}

void Sysfs::register_int(const std::string& path, std::int64_t* target, std::int64_t min_value,
                         std::int64_t max_value) {
  register_attr(
      path, [target]() { return *target; },
      [target, min_value, max_value](std::int64_t v) {
        if (v < min_value || v > max_value) return false;
        *target = v;
        return true;
      });
}

std::optional<std::int64_t> Sysfs::read(const std::string& path) const {
  const auto it = attrs_.find(path);
  if (it == attrs_.end()) return std::nullopt;
  return it->second.get();
}

bool Sysfs::write(const std::string& path, std::int64_t value) {
  const auto it = attrs_.find(path);
  if (it == attrs_.end()) return false;
  if (write_hook_) write_hook_();
  return it->second.set(value);
}

std::vector<std::string> Sysfs::list() const {
  std::vector<std::string> out;
  out.reserve(attrs_.size());
  for (const auto& [path, attr] : attrs_) out.push_back(path);
  return out;
}

}  // namespace hpcs::kern
