#include "support/atomic_file.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "support/campaign_error.hpp"
#include "support/fault.hpp"

namespace glitchmask {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
    const int saved = errno;
    throw CampaignError(CampaignErrorKind::IoFailure,
                        what + " " + path + ": " + std::strerror(saved),
                        saved);
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable.  Some filesystems refuse to fsync directories; that
/// is not a correctness problem (the rename is still atomic), so errors
/// other than open failure are ignored.
void fsync_parent_dir(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    (void)::fsync(fd);
    ::close(fd);
}

/// Runs one syscall with its fault-injection site: a configured fault
/// replaces the real call's result with -1/errno, otherwise the call runs
/// normally.
template <class Call>
auto faultable(const char* site, Call&& call) -> decltype(call()) {
    if (const int injected = fault::inject_errno(site); injected != 0) {
        errno = injected;
        return static_cast<decltype(call())>(-1);
    }
    return call();
}

/// RAII temp-file cleanup: any failure path between creation and the
/// final rename must unlink the temp file, or retries would accumulate
/// orphaned `.tmp` litter next to every checkpoint.
struct TempFileGuard {
    const std::string& path;
    bool armed = true;
    ~TempFileGuard() {
        if (armed) ::unlink(path.c_str());
    }
};

}  // namespace

void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
    const std::string tmp = path + ".tmp";

    // Snapshot-corruption site: a firing plan flips one byte of the
    // payload as written, so the next reader exercises its CRC rejection.
    std::vector<std::uint8_t> corrupted;
    if (fault::active()) {
        corrupted.assign(bytes.begin(), bytes.end());
        if (fault::inject_corrupt("atomic_file.payload", corrupted))
            bytes = corrupted;
        else
            corrupted.clear();
    }

    int fd = -1;
    for (;;) {
        fd = faultable("atomic_file.open", [&] {
            return ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        });
        if (fd >= 0) break;
        if (errno == EINTR) continue;
        fail("atomic_write_file: cannot create", tmp);
    }
    TempFileGuard guard{tmp};

    std::size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n = faultable("atomic_file.write", [&] {
            return ::write(fd, bytes.data() + written, bytes.size() - written);
        });
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            fail("atomic_write_file: write to", tmp);
        }
        written += static_cast<std::size_t>(n);
    }
    for (;;) {
        const int rc = faultable("atomic_file.fsync", [&] { return ::fsync(fd); });
        if (rc == 0) break;
        if (errno == EINTR) continue;
        ::close(fd);
        fail("atomic_write_file: fsync of", tmp);
    }
    // close() must not be retried on EINTR (the descriptor's state is
    // unspecified and the fd may already be reusable); EINTR after a
    // clean fsync is treated as success.
    if (::close(fd) != 0 && errno != EINTR)
        fail("atomic_write_file: close of", tmp);
    for (;;) {
        const int renamed = faultable("atomic_file.rename", [&] {
            return ::rename(tmp.c_str(), path.c_str());
        });
        if (renamed == 0) break;
        if (errno == EINTR) continue;  // absorbed like every other site
        fail("atomic_write_file: rename to", path);
    }
    guard.armed = false;
    fsync_parent_dir(path);
}

void atomic_write_file(const std::string& path, std::string_view text) {
    atomic_write_file(path, std::span<const std::uint8_t>(
                                reinterpret_cast<const std::uint8_t*>(
                                    text.data()),
                                text.size()));
}

std::optional<std::vector<std::uint8_t>> read_file_if_exists(
    const std::string& path) {
    int fd = -1;
    for (;;) {
        fd = faultable("atomic_file.read_open",
                       [&] { return ::open(path.c_str(), O_RDONLY); });
        if (fd >= 0) break;
        if (errno == ENOENT) return std::nullopt;
        if (errno == EINTR) continue;
        fail("read_file_if_exists: cannot open", path);
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t buffer[1 << 16];
    for (;;) {
        const ssize_t n = faultable("atomic_file.read", [&] {
            return ::read(fd, buffer, sizeof buffer);
        });
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            fail("read_file_if_exists: read of", path);
        }
        if (n == 0) break;
        bytes.insert(bytes.end(), buffer, buffer + n);
    }
    ::close(fd);
    return bytes;
}

}  // namespace glitchmask
