#include "util/fsio.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace wsnex::util {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  const int err = errno;
  throw FileError(what + ": " + std::strerror(err) + " (errno " +
                  std::to_string(err) + ")");
}

/// True for the `<name>.tmp.<thread>` pattern write_file_atomic uses (and
/// the bare `.tmp` suffix older writers used).
bool is_temp_debris(const std::string& name) {
  return name.find(".tmp.") != std::string::npos ||
         (name.size() >= 4 &&
          std::string_view(name).substr(name.size() - 4) == ".tmp");
}

#if !defined(_WIN32)

/// Every fsync this module issues, on a file or on a directory, counted
/// whether or not it succeeds.
metrics::Counter& fsyncs_total() {
  static metrics::Counter& fsyncs = metrics::Registry::instance().counter(
      "wsnex_fsyncs_total",
      "fsync calls issued by durable file writes, on files and on their "
      "directories");
  return fsyncs;
}

void write_all(int fd, const char* data, std::size_t size,
               const std::string& tmp) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      errno = err;
      throw_errno("write failed for " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
}

#endif  // !_WIN32

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw FileError("cannot open " + path + ": " + std::strerror(errno) +
                    " (errno " + std::to_string(errno) + ")");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) throw FileError("read failed for " + path);
  return ss.str();
}

// A failure here is logged but not thrown — the renames have already
// happened, the contents are visible, and unwinding would make the caller
// treat a completed write as failed.
void fsync_dir(const std::string& dir) {
#if !defined(_WIN32)
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    WSNEX_WARN() << "cannot open " << dir
                 << " to fsync after rename: " << std::strerror(errno);
    return;
  }
  fsyncs_total().inc();
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    WSNEX_WARN() << "fsync of " << dir
                 << " failed after rename: " << std::strerror(errno);
  }
  ::close(fd);
#else
  (void)dir;
#endif
}

void fsync_file(const std::string& path) {
#if !defined(_WIN32)
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("cannot open " + path + " to fsync");
  fsyncs_total().inc();
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("fsync failed for " + path);
  }
  ::close(fd);
#else
  (void)path;
#endif
}

void write_file_atomic(const std::string& path, const std::string& contents,
                       const char* site, RenameSync sync) {
  std::string_view payload = contents;
  if (site != nullptr) {
    const auto fault = failpoint::evaluate(site);
    if (fault.kind == failpoint::ActionKind::kError) {
      errno = fault.error_errno;
      throw_errno("cannot write " + path + " (injected)");
    }
    if (fault.kind == failpoint::ActionKind::kTorn) {
      // A torn write persists a truncated payload through the normal
      // atomic path and reports success: the loss only surfaces when the
      // file is next read, which is exactly what readers must tolerate.
      payload = payload.substr(0, fault.torn_bytes);
    }
  }

  std::ostringstream suffix;
  suffix << ".tmp." << std::this_thread::get_id();
  const std::string tmp = path + suffix.str();

#if !defined(_WIN32)
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("cannot create " + tmp);
  try {
    write_all(fd, payload.data(), payload.size(), tmp);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  fsyncs_total().inc();
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = err;
    throw_errno("fsync failed for " + tmp);
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    errno = err;
    throw_errno("close failed for " + tmp);
  }

  if (site != nullptr) {
    const std::string rename_site = std::string(site) + ".rename";
    const auto fault = failpoint::evaluate(rename_site.c_str());
    if (fault.kind == failpoint::ActionKind::kError) {
      ::unlink(tmp.c_str());
      errno = fault.error_errno;
      throw_errno("cannot rename " + tmp + " to " + path + " (injected)");
    }
  }

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    errno = err;
    throw_errno("cannot rename " + tmp + " to " + path);
  }
  if (sync == RenameSync::kNow) {
    const fs::path parent = fs::path(path).parent_path();
    fsync_dir(parent.empty() ? "." : parent.string());
  }
#else
  (void)sync;
  // No POSIX fd plumbing on Windows: keep the atomic temp+rename shape,
  // durable only as far as the OS page cache.
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw FileError("cannot write " + tmp);
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) throw FileError("write failed for " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    throw FileError("cannot rename " + tmp + " to " + path + ": " +
                    ec.message());
  }
#endif
}

std::size_t remove_stale_temp_files(const std::string& dir) {
  std::error_code ec;
  std::size_t removed = 0;
  fs::recursive_directory_iterator it(
      dir, fs::directory_options::skip_permission_denied, ec);
  if (ec) return 0;
  for (const fs::recursive_directory_iterator end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (!is_temp_debris(name)) continue;
    std::error_code remove_ec;
    if (fs::remove(it->path(), remove_ec)) {
      ++removed;
      WSNEX_WARN() << "removed stale temp file " << it->path().string();
    } else if (remove_ec) {
      WSNEX_WARN() << "cannot remove stale temp file "
                   << it->path().string() << ": " << remove_ec.message();
    }
  }
  return removed;
}

}  // namespace wsnex::util
