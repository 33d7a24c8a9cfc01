// util::fsio durability helpers: atomic temp+rename writes, fsync_file,
// errno-carrying FileError messages, stale temp-file sweeping, and
// write_file_atomic's failpoint instrumentation (injected errors and torn
// writes) on -DWSNEX_FAILPOINTS=ON builds.
#include "util/fsio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/failpoint.hpp"
#include "util/metrics.hpp"

namespace wsnex::util {
namespace {

namespace fs = std::filesystem;

class FsioTest : public ::testing::Test {
 protected:
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_fsio_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());

  void SetUp() override {
    fs::create_directories(root_);
    failpoint::reset();
  }
  void TearDown() override {
    failpoint::reset();
    fs::remove_all(root_);
  }

  std::vector<std::string> entries() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::recursive_directory_iterator(root_)) {
      if (entry.is_regular_file()) {
        names.push_back(entry.path().filename().string());
      }
    }
    return names;
  }

  static void touch(const fs::path& path, const std::string& contents = "x") {
    std::ofstream out(path, std::ios::binary);
    out << contents;
  }
};

TEST_F(FsioTest, WriteReadRoundTripsBinaryContents) {
  const std::string contents("line\n\0mid\0tail", 14);
  const std::string path = (root_ / "blob.bin").string();
  write_file_atomic(path, contents);
  EXPECT_EQ(read_file(path), contents);
}

TEST_F(FsioTest, OverwriteReplacesWithoutLeavingTempDebris) {
  const std::string path = (root_ / "state.json").string();
  write_file_atomic(path, "first");
  write_file_atomic(path, "second");
  EXPECT_EQ(read_file(path), "second");
  EXPECT_EQ(entries(), std::vector<std::string>{"state.json"});
}

// A batch of deferred renames costs one fsync per file and one for the
// directory, where immediate ones cost two per file.
TEST_F(FsioTest, DeferredRenamesShareOneDirectoryFsync) {
  // Looked up by name; the help text of the first registration is kept.
  const metrics::Counter& fsyncs =
      metrics::Registry::instance().counter("wsnex_fsyncs_total", "");
  double before = fsyncs.value();
  write_file_atomic((root_ / "now.json").string(), "1");
  EXPECT_EQ(fsyncs.value() - before, 2.0);

  before = fsyncs.value();
  for (const char* name : {"a.json", "b.json", "c.json"}) {
    write_file_atomic((root_ / name).string(), name, nullptr,
                      RenameSync::kDeferred);
  }
  EXPECT_EQ(fsyncs.value() - before, 3.0);
  fsync_dir(root_.string());
  EXPECT_EQ(fsyncs.value() - before, 4.0);
  EXPECT_EQ(read_file((root_ / "b.json").string()), "b.json");
  EXPECT_EQ(entries().size(), 4u);  // no temp debris
}

// A file written in place costs one fsync; a missing one throws naming
// its path.
TEST_F(FsioTest, FsyncFileCountsOneFsyncAndNamesAMissingFile) {
  const metrics::Counter& fsyncs =
      metrics::Registry::instance().counter("wsnex_fsyncs_total", "");
  const std::string path = (root_ / "archive.csv").string();
  touch(path);
  const double before = fsyncs.value();
  fsync_file(path);
  EXPECT_EQ(fsyncs.value() - before, 1.0);

  const std::string missing = (root_ / "absent.csv").string();
  try {
    fsync_file(missing);
    FAIL() << "fsync_file should have thrown";
  } catch (const FileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(missing), std::string::npos) << what;
  }
}

TEST_F(FsioTest, ReadMissingFileThrowsWithErrno) {
  const std::string path = (root_ / "absent.json").string();
  try {
    read_file(path);
    FAIL() << "read_file should have thrown";
  } catch (const FileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("errno"), std::string::npos) << what;
  }
}

TEST_F(FsioTest, WriteIntoMissingDirectoryThrowsWithErrno) {
  const std::string path = (root_ / "no_such_dir" / "f.json").string();
  try {
    write_file_atomic(path, "payload");
    FAIL() << "write_file_atomic should have thrown";
  } catch (const FileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("errno"), std::string::npos) << what;
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(FsioTest, RemoveStaleTempFilesSweepsRecursivelyAndKeepsLiveFiles) {
  fs::create_directories(root_ / "shard" / "nested");
  touch(root_ / "summary.json.tmp.140213834082624");
  touch(root_ / "shard" / "job.json.tmp.1");
  touch(root_ / "shard" / "nested" / "old_style.tmp");
  touch(root_ / "summary.json");
  touch(root_ / "shard" / "job.json");
  // "tmp" inside a name without the dot pattern is not debris.
  touch(root_ / "tmpfile.json");

  EXPECT_EQ(remove_stale_temp_files(root_.string()), 3u);

  std::vector<std::string> left = entries();
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<std::string>{"job.json", "summary.json",
                                            "tmpfile.json"}));
  // Second sweep finds nothing.
  EXPECT_EQ(remove_stale_temp_files(root_.string()), 0u);
}

TEST_F(FsioTest, RemoveStaleTempFilesOnMissingDirReturnsZero) {
  EXPECT_EQ(remove_stale_temp_files((root_ / "ghost").string()), 0u);
}

TEST_F(FsioTest, InjectedWriteErrorThrowsAndLeavesNothingBehind) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  }
  failpoint::configure("test.fsio=error(ENOSPC)");
  const std::string path = (root_ / "doomed.json").string();
  try {
    write_file_atomic(path, "payload", "test.fsio");
    FAIL() << "injected ENOSPC should have thrown";
  } catch (const FileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("injected"), std::string::npos) << what;
    EXPECT_NE(what.find("errno 28"), std::string::npos) << what;
  }
  EXPECT_TRUE(entries().empty());
}

TEST_F(FsioTest, InjectedTornWriteSucceedsWithTruncatedPayload) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  }
  failpoint::configure("test.fsio=torn@5");
  const std::string path = (root_ / "torn.json").string();
  // The tear is silent: the call reports success and the loss surfaces
  // at the next read, exactly like a lost page-cache tail.
  write_file_atomic(path, "0123456789", "test.fsio");
  EXPECT_EQ(read_file(path), "01234");
  EXPECT_EQ(entries(), std::vector<std::string>{"torn.json"});
}

TEST_F(FsioTest, InjectedRenameErrorThrowsAndRemovesTheTempFile) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  }
  failpoint::configure("test.fsio.rename=error(EXDEV)");
  const std::string path = (root_ / "unrenamed.json").string();
  EXPECT_THROW(write_file_atomic(path, "payload", "test.fsio"), FileError);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(entries().empty());
}

TEST_F(FsioTest, UninstrumentedWritesIgnoreArmedSites) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  }
  failpoint::configure("test.fsio=error(EIO)");
  const std::string path = (root_ / "plain.json").string();
  write_file_atomic(path, "payload");  // no site: nothing to evaluate
  EXPECT_EQ(read_file(path), "payload");
}

}  // namespace
}  // namespace wsnex::util
