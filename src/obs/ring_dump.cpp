#include "obs/ring_dump.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "obs/recorder.h"
#include "obs/tracepoint.h"

namespace hpcs::obs {
namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

}  // namespace

std::string encode_ring_dump(const std::vector<RingDumpRun>& runs) {
  std::string out;
  out.append("HPCSRING", 8);
  put_u32(out, kRingDumpVersion);
  std::uint32_t live = 0;
  for (const RingDumpRun& r : runs) live += r.recorder != nullptr ? 1 : 0;
  put_u32(out, live);
  for (const RingDumpRun& r : runs) {
    if (r.recorder == nullptr) continue;
    put_u32(out, static_cast<std::uint32_t>(r.name.size()));
    out.append(r.name);
    const int cpus = r.recorder->num_cpus();
    put_u32(out, static_cast<std::uint32_t>(cpus));
    for (int cpu = 0; cpu < cpus; ++cpu) {
      const TraceRing& ring = r.recorder->ring(cpu);
      const std::vector<TraceEntry> entries = ring.entries();
      put_u64(out, ring.pushed());
      put_u64(out, ring.dropped());
      put_u64(out, entries.size());
      for (const TraceEntry& e : entries) {
        // Field-by-field rather than memcpy of the struct: same bytes on the
        // platforms we build for, but independent of padding decisions.
        put_i64(out, e.t.ns());
        put_u32(out, e.tp);
        put_u32(out, static_cast<std::uint32_t>(e.cpu));
        put_i64(out, e.a0);
        put_i64(out, e.a1);
      }
    }
  }
  return out;
}

bool write_ring_dump(const std::string& path, const std::vector<RingDumpRun>& runs,
                     std::string& error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    error = "cannot open " + path + " for writing";
    return false;
  }
  const std::string blob = encode_ring_dump(runs);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out.good()) {
    error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace hpcs::obs
