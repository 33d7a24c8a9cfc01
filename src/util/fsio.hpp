// Small file-I/O helpers shared by the result store, the serve job
// shards and the PRD disk cache: whole-file reads and crash-safe
// (temp-file + fsync + rename) writes.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace wsnex::util {

/// I/O failure (message names the path and carries strerror(errno)).
class FileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Whole contents of the file at `path` (binary). Throws FileError.
std::string read_file(const std::string& path);

/// Who makes a write_file_atomic rename durable.
enum class RenameSync {
  kNow,       ///< write_file_atomic fsyncs the parent directory itself
  kDeferred,  ///< the caller does, with one fsync_dir() after a batch
};

/// Writes `contents` to `path` through a sibling temp file + rename, so a
/// reader (or a crash) never observes a half-written file. The temp file
/// name embeds the writing thread, so two threads writing *different*
/// final paths in one directory never collide; two writers racing on the
/// *same* final path still last-write-win atomically.
///
/// Durability: the temp file is fsync'd before the rename and, with
/// RenameSync::kNow, the parent directory is fsync'd after it, so once
/// this returns the new contents survive power loss (POSIX; on other
/// platforms the write is atomic but only as durable as the OS page
/// cache). With kDeferred the rename survives power loss only once the
/// caller's fsync_dir() on the parent returns. Each fsync bumps the
/// `wsnex_fsyncs_total` counter when it is issued.
///
/// `site` optionally names a util::failpoint evaluated around the write:
/// `<site>` fires before the payload hits the temp file (error(E) throws
/// FileError with that errno; torn@N persists only the first N bytes and
/// then *succeeds*, simulating a lost tail) and `<site>.rename` fires
/// before the rename. Pass nullptr (default) for no instrumentation.
///
/// Throws FileError naming the failing step, path and strerror(errno).
void write_file_atomic(const std::string& path, const std::string& contents,
                       const char* site = nullptr,
                       RenameSync sync = RenameSync::kNow);

/// fsyncs the directory `dir`, making the renames into it durable (one
/// `wsnex_fsyncs_total` bump). Never throws: the renames have happened and
/// are visible, so a failure is logged, and filesystems that refuse to
/// fsync a directory (EINVAL) pass silently. A no-op off POSIX.
void fsync_dir(const std::string& dir);

/// fsyncs the file at `path`, opened read-only, making its contents
/// durable (one `wsnex_fsyncs_total` bump). For files written in place,
/// such as the archive CSVs; their directory entry is durable once the
/// directory is fsync'd. A no-op off POSIX. Throws FileError naming the
/// path.
void fsync_file(const std::string& path);

/// Recursively removes `*.tmp` / `*.tmp.*` debris left under `dir` by
/// writers that crashed between creating a temp file and renaming it.
/// Never throws: unremovable entries are skipped (warn-logged). Returns
/// the number of files removed. Call only from startup/recovery paths —
/// it races with live write_file_atomic writers by design.
std::size_t remove_stale_temp_files(const std::string& dir);

}  // namespace wsnex::util
