#pragma once
// How the report files (manifests, Chrome traces, and the PARAVER and CSV
// exports) reach disk. A file that did not get all its bytes must not pass
// for a written one: the writer warns and returns false, and a driver that
// was asked for the file prints everything else, then exits 1.

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

namespace hpcs::obs {

/// Create or truncate `path`, let `emit` write the contents, and close it.
/// `emit` returns false when one of its writes came up short. Returns false,
/// after one warning on stderr, when the file cannot be opened, `emit`
/// fails, or closing fails: stdio's last buffer reaches the file only then,
/// so a small file on a full disk fails there.
bool write_text_file(const std::string& path, const std::function<bool(std::FILE*)>& emit);

/// write_text_file for contents already in memory.
bool write_text_file(const std::string& path, std::string_view body);

}  // namespace hpcs::obs
