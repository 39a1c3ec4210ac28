#include "obs/manifest.h"

#include <cstdio>

#include "obs/text_file.h"

namespace hpcs::obs {
namespace {

[[nodiscard]] std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

[[nodiscard]] std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void append_metric(std::string& out, const MetricValue& m) {
  out += "      {\"name\": \"" + esc(m.name) + "\", \"kind\": \"";
  out += metric_kind_name(m.kind);
  out += "\"";
  switch (m.kind) {
    case MetricKind::kCounter:
      out += ", \"count\": " + std::to_string(m.count);
      break;
    case MetricKind::kHistogram: {
      out += ", \"count\": " + std::to_string(m.count);
      out += ", \"sum\": " + fmt_double(m.value);
      out += ", \"edges\": [";
      for (std::size_t i = 0; i < m.edges.size(); ++i) {
        if (i) out += ", ";
        out += fmt_double(m.edges[i]);
      }
      out += "], \"buckets\": [";
      for (std::size_t i = 0; i < m.buckets.size(); ++i) {
        if (i) out += ", ";
        out += std::to_string(m.buckets[i]);
      }
      out += "]";
      break;
    }
  }
  out += "}";
}

void append_windows(std::string& out, const WindowedSeries& w) {
  out += "    \"windows\": {\"window_ns\": " + std::to_string(w.window_ns);
  out += ", \"int_columns\": [";
  for (std::size_t i = 0; i < w.int_columns.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + esc(w.int_columns[i]) + "\"";
  }
  out += "], \"real_columns\": [";
  for (std::size_t i = 0; i < w.real_columns.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + esc(w.real_columns[i]) + "\"";
  }
  out += "], \"samples\": [";
  for (std::size_t s = 0; s < w.samples.size(); ++s) {
    out += s ? ",\n      {" : "\n      {";
    out += "\"t_ns\": " + std::to_string(w.samples[s].end.ns());
    out += ", \"ints\": [";
    for (std::size_t i = 0; i < w.samples[s].ints.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(w.samples[s].ints[i]);
    }
    out += "], \"reals\": [";
    for (std::size_t i = 0; i < w.samples[s].reals.size(); ++i) {
      if (i) out += ", ";
      out += fmt_double(w.samples[s].reals[i]);
    }
    out += "]}";
  }
  out += w.samples.empty() ? "]}" : "\n    ]}";
}

}  // namespace

std::string render_manifest_json(const std::string& bench,
                                 const std::vector<ManifestRun>& runs) {
  std::string out = "{\n";
  out += "  \"schema\": \"";
  out += kManifestSchema;
  out += "\",\n";
  out += "  \"bench\": \"" + esc(bench) + "\",\n";
  out += "  \"runs\": [";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    out += r ? ", {\n" : "{\n";
    out += "    \"name\": \"" + esc(runs[r].name) + "\",\n";
    out += "    \"sim_end_s\": " + fmt_double(runs[r].metrics.at.sec()) + ",\n";
    out += "    \"metrics\": [\n";
    const std::vector<MetricValue>& ms = runs[r].metrics.metrics;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      append_metric(out, ms[i]);
      out += i + 1 < ms.size() ? ",\n" : "\n";
    }
    out += "    ],\n";
    append_windows(out, runs[r].metrics.windows);
    out += "\n  }";
  }
  out += "]\n}\n";
  return out;
}

bool write_manifest_json(const std::string& path, const std::string& bench,
                         const std::vector<ManifestRun>& runs) {
  return write_text_file(path, render_manifest_json(bench, runs));
}

}  // namespace hpcs::obs
