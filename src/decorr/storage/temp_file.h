// Spill-to-disk temp-file layer: per-query scratch directory, checksummed
// fixed-size pages, and serialized Value rows.
//
// Layout of a spill file: a sequence of fixed-size pages (kSpillPageSize
// bytes each). Every page carries a header {magic, payload length, FNV-1a
// checksum of the payload}; the payloads concatenate into one logical byte
// stream, so a serialized row may span page boundaries. Rows are encoded as
// [u32 value count][per value: u8 type tag + payload]; strings carry a u32
// length prefix. The encoding round-trips NULLs exactly, which is what lets
// Grace partitioning preserve null-safe (`<=>`) join keys.
//
// Lifecycle and cleanup invariants:
//   - TempFileManager::Open() resolves the scratch root (QueryOptions
//     temp_dir, else $TMPDIR, else /tmp), creates one private subdirectory
//     per query, and fails with kIoError *before any operator runs* when the
//     root is missing or unwritable.
//   - Every SpillFile unlinks itself on destruction and returns its pages to
//     the disk budget; the manager's destructor removes the scratch
//     directory recursively. Together these guarantee zero leaked temp files
//     on success, error, cancellation, and injected fault alike — cleanup is
//     destructor-driven, so no error path can skip it.
//   - The manager must outlive every SpillFile it created (in practice: the
//     manager is declared before the physical plan in Database::RunOnce).
//
// Thread safety: Open() names the scratch directory from a process-wide
// atomic counter, so concurrent queries (the Server's sessions) never
// share one. Each query owns its manager and runs on one thread; Create()
// and the disk-budget counters are atomics all the same. Individual
// SpillFile/SpillWriter/SpillReader objects are single-threaded, like the
// operator instances that own them.
#ifndef DECORR_STORAGE_TEMP_FILE_H_
#define DECORR_STORAGE_TEMP_FILE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "decorr/common/status.h"
#include "decorr/common/value.h"

namespace decorr {

// Fixed on-disk page size, header included.
constexpr int64_t kSpillPageSize = 4096;

// Grace partitioning fan-out and the recursion-depth cap. Exceeding the cap
// (a pathologically skewed or single-key partition that still does not fit)
// surfaces as a clean kResourceExhausted — never an OOM.
constexpr int kSpillFanout = 8;
constexpr int kSpillMaxDepth = 4;

class TempFileManager;

// One scratch file. Created via TempFileManager::Create; unlinked and
// un-charged from the disk budget on destruction.
class SpillFile {
 public:
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  const std::string& path() const { return path_; }
  // Pages written so far, in bytes (each page is kSpillPageSize).
  int64_t bytes() const { return bytes_; }

 private:
  friend class TempFileManager;
  friend class SpillWriter;
  friend class SpillReader;

  SpillFile(TempFileManager* manager, std::string path, std::FILE* file)
      : manager_(manager), path_(std::move(path)), file_(file) {}

  TempFileManager* manager_;
  std::string path_;
  std::FILE* file_;
  int64_t bytes_ = 0;
};

// Serialized-row append interface over a SpillFile. Buffers one page;
// WriteRow may flush any number of full pages. Finish() pads and flushes the
// final partial page; reading a file before Finish() is a programming error.
class SpillWriter {
 public:
  explicit SpillWriter(SpillFile* file) : file_(file) {}

  Status WriteRow(const Row& row);
  Status Finish();

  int64_t rows_written() const { return rows_; }
  int64_t bytes_written() const { return bytes_; }

 private:
  Status FlushPage();

  SpillFile* file_;
  std::string buf_;  // pending payload bytes for the current page
  int64_t rows_ = 0;
  int64_t bytes_ = 0;
  bool finished_ = false;
};

// Sequential reader over a finished SpillFile. Verifies the checksum of
// every page; a mismatch (or a short/garbled page) surfaces as kIoError so
// corruption can never produce silently wrong rows.
class SpillReader {
 public:
  explicit SpillReader(SpillFile* file);

  // Reads the next row; sets *eof instead when the stream is exhausted.
  Status ReadRow(Row* row, bool* eof);

  int64_t bytes_read() const { return bytes_; }

 private:
  Status FillBuffer(size_t need);

  SpillFile* file_;
  std::string buf_;     // decoded logical stream not yet consumed
  size_t pos_ = 0;      // read offset into buf_
  int64_t next_page_offset_ = 0;
  bool pages_done_ = false;
  int64_t bytes_ = 0;
};

// Per-query scratch-space manager: owns the scratch directory, hands out
// spill files, and enforces the spill_bytes disk budget.
class TempFileManager {
 public:
  // `temp_dir` empty means "use $TMPDIR, else /tmp". `disk_budget_bytes`
  // 0 means unlimited.
  TempFileManager(std::string temp_dir, int64_t disk_budget_bytes);
  ~TempFileManager();

  TempFileManager(const TempFileManager&) = delete;
  TempFileManager& operator=(const TempFileManager&) = delete;

  // Resolves the scratch root and creates the per-query subdirectory.
  // kIoError when the root is missing or unwritable — callers invoke this
  // before execution starts so a bad temp_dir never fails mid-query.
  Status Open();

  // Creates a fresh scratch file; `label` only decorates the filename for
  // debuggability. Thread-safe.
  Result<std::unique_ptr<SpillFile>> Create(const char* label);

  // Disk-budget accounting, charged per page by SpillWriter and released
  // when a SpillFile is destroyed.
  Status ChargeDisk(int64_t bytes);
  void ReleaseDisk(int64_t bytes);

  const std::string& scratch_dir() const { return scratch_dir_; }
  int64_t disk_used() const {
    return disk_used_.load(std::memory_order_relaxed);
  }
  int64_t live_files() const {
    return live_files_.load(std::memory_order_relaxed);
  }

 private:
  friend class SpillFile;  // live-file accounting on destruction

  std::string requested_dir_;
  int64_t disk_budget_;
  std::string scratch_dir_;  // empty until Open() succeeds
  std::atomic<int64_t> seq_{0};
  std::atomic<int64_t> disk_used_{0};
  std::atomic<int64_t> live_files_{0};
};

// A spill file paired with its writer — one Grace partition output stream.
struct SpillBucket {
  std::unique_ptr<SpillFile> file;
  std::unique_ptr<SpillWriter> writer;
};

// Creates `count` fresh buckets in one shot (all-or-nothing on error).
Result<std::vector<SpillBucket>> CreateSpillBuckets(TempFileManager* temp,
                                                    const char* label,
                                                    int count);

// Row (de)serialization used by the spill format; exposed for tests.
void AppendSpillRow(const Row& row, std::string* out);
Status DecodeSpillRow(const char* data, size_t size, Row* row,
                      size_t* consumed);

// Hash of a key row for Grace partitioning, salted by recursion depth so
// re-partitioning a skewed partition actually redistributes it (and so the
// partition choice is decorrelated from the in-memory RowHash buckets).
uint64_t SpillPartitionHash(const Row& key, int depth);

}  // namespace decorr

#endif  // DECORR_STORAGE_TEMP_FILE_H_
