// Torn-write-proof file replacement.
//
// A checkpoint that can be half-written is worse than none: a campaign
// killed mid-write would resume from garbage.  atomic_write_file() writes
// to `<path>.tmp`, fsyncs the data, renames over `path`, and fsyncs the
// containing directory -- on POSIX the rename is atomic, so a reader (or
// a resuming campaign) only ever sees the complete old file or the
// complete new one.  Failures throw CampaignError{IoFailure}.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace glitchmask {

/// Atomically replaces `path` with `bytes` (temp file + fsync + rename +
/// directory fsync).  Throws CampaignError{IoFailure} on any failure; the
/// previous file, if any, is left intact in that case.
void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> bytes);
/// The same for a text document (report, trace, state file).
void atomic_write_file(const std::string& path, std::string_view text);

/// Reads the whole file, or nullopt when it does not exist.  Any other
/// failure (permissions, I/O error) throws CampaignError{IoFailure}.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_file_if_exists(
    const std::string& path);

}  // namespace glitchmask
