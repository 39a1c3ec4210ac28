#include "obs/text_file.h"

#include <memory>

namespace hpcs::obs {

bool write_text_file(const std::string& path, const std::function<bool(std::FILE*)>& emit) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  bool ok = emit(f.get());
  ok = std::fclose(f.release()) == 0 && ok;  // stdio's last buffer lands here
  if (!ok) std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
  return ok;
}

bool write_text_file(const std::string& path, std::string_view body) {
  return write_text_file(path, [body](std::FILE* f) {
    return std::fwrite(body.data(), 1, body.size(), f) == body.size();
  });
}

}  // namespace hpcs::obs
