#pragma once
// Shared machine-readable results emitter for the bench drivers. Every
// table*/ablation_*/micro_* binary writes a BENCH_<name>.json next to its
// human-readable output so downstream tooling (regression tracking, the
// EXPERIMENTS.md generator) can diff runs without scraping stdout.
//
// Deliberately tiny: insertion-ordered key/value objects, nested objects and
// flat numeric arrays cover everything the benches report.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/text_file.h"

namespace hpcs::bench {

class JsonValue {
 public:
  static JsonValue number(double v) { return JsonValue(Kind::kNumber, format_double(v)); }
  static JsonValue integer(std::int64_t v) { return JsonValue(Kind::kNumber, std::to_string(v)); }
  static JsonValue boolean(bool v) { return JsonValue(Kind::kBool, v ? "true" : "false"); }
  static JsonValue string(std::string v) { return JsonValue(Kind::kString, std::move(v)); }

  [[nodiscard]] std::string render() const {
    if (kind_ != Kind::kString) return scalar_;
    std::string out = "\"";
    for (const char c : scalar_) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    out += '"';
    return out;
  }

 private:
  enum class Kind { kNumber, kBool, kString };
  JsonValue(Kind k, std::string s) : kind_(k), scalar_(std::move(s)) {}

  static std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }

  Kind kind_;
  std::string scalar_;
};

/// Insertion-ordered JSON object builder (fluent: returns *this).
class JsonObject {
 public:
  JsonObject& field(const std::string& key, double v) { return add(key, JsonValue::number(v).render()); }
  JsonObject& field(const std::string& key, int v) { return add(key, JsonValue::integer(v).render()); }
  JsonObject& field(const std::string& key, unsigned v) {
    return add(key, JsonValue::integer(static_cast<std::int64_t>(v)).render());
  }
  JsonObject& field(const std::string& key, std::int64_t v) { return add(key, JsonValue::integer(v).render()); }
  JsonObject& field(const std::string& key, bool v) { return add(key, JsonValue::boolean(v).render()); }
  JsonObject& field(const std::string& key, const char* v) {
    return add(key, JsonValue::string(v).render());
  }
  JsonObject& field(const std::string& key, const std::string& v) {
    return add(key, JsonValue::string(v).render());
  }
  JsonObject& object(const std::string& key, const JsonObject& obj) { return add(key, obj.render(1)); }
  JsonObject& array(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) out += ", ";
      out += JsonValue::number(vs[i]).render();
    }
    return add(key, out + "]");
  }
  JsonObject& array(const std::string& key, const std::vector<std::int64_t>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) out += ", ";
      out += JsonValue::integer(vs[i]).render();
    }
    return add(key, out + "]");
  }
  JsonObject& array(const std::string& key, const std::vector<JsonObject>& objs) {
    std::string out = "[";
    for (std::size_t i = 0; i < objs.size(); ++i) {
      if (i) out += ", ";
      out += objs[i].render(1);
    }
    return add(key, out + "]");
  }

  [[nodiscard]] std::string render(int depth = 0) const {
    const std::string pad(static_cast<std::size_t>(depth) * 2 + 2, ' ');
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += pad + JsonValue::string(fields_[i].first).render() + ": " + fields_[i].second;
      out += i + 1 < fields_.size() ? ",\n" : "\n";
    }
    out += std::string(static_cast<std::size_t>(depth) * 2, ' ') + "}";
    return out;
  }

 private:
  JsonObject& add(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Write `obj` to `path` (plus trailing newline). Returns false on I/O error
/// — benches warn but do not fail the run over a report file.
inline bool write_json_file(const std::string& path, const JsonObject& obj) {
  return obs::write_text_file(path, obj.render() + "\n");
}

}  // namespace hpcs::bench
