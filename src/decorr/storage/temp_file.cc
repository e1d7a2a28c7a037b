#include "decorr/storage/temp_file.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"

namespace decorr {

namespace {

// Page layout: [u32 magic][u32 payload_len][u64 checksum][payload][zero pad].
constexpr uint32_t kPageMagic = 0xDEC08A11;
constexpr size_t kPageHeaderSize = 16;
constexpr size_t kPagePayloadCap = kSpillPageSize - kPageHeaderSize;

uint64_t Fnv1a(const char* data, size_t size) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

void AppendU32(uint32_t v, std::string* out) {
  char bytes[4];
  std::memcpy(bytes, &v, 4);
  out->append(bytes, 4);
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void AppendValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      out->push_back(v.bool_value() ? 1 : 0);
      break;
    case TypeId::kInt64: {
      int64_t i = v.int64_value();
      char bytes[8];
      std::memcpy(bytes, &i, 8);
      out->append(bytes, 8);
      break;
    }
    case TypeId::kDouble: {
      double d = v.double_value();
      char bytes[8];
      std::memcpy(bytes, &d, 8);
      out->append(bytes, 8);
      break;
    }
    case TypeId::kString: {
      const std::string_view s = v.string_value();
      AppendU32(static_cast<uint32_t>(s.size()), out);
      out->append(s);
      break;
    }
  }
}

Status DecodeValue(const char* data, size_t size, size_t* pos, Value* v) {
  if (*pos >= size) {
    return Status::IoError("spill record truncated (missing value tag)");
  }
  const auto tag = static_cast<TypeId>(data[(*pos)++]);
  switch (tag) {
    case TypeId::kNull:
      *v = Value::Null();
      return Status::OK();
    case TypeId::kBool:
      if (*pos + 1 > size) break;
      *v = Value::Bool(data[*pos] != 0);
      *pos += 1;
      return Status::OK();
    case TypeId::kInt64: {
      if (*pos + 8 > size) break;
      int64_t i;
      std::memcpy(&i, data + *pos, 8);
      *pos += 8;
      *v = Value::Int64(i);
      return Status::OK();
    }
    case TypeId::kDouble: {
      if (*pos + 8 > size) break;
      double d;
      std::memcpy(&d, data + *pos, 8);
      *pos += 8;
      *v = Value::Double(d);
      return Status::OK();
    }
    case TypeId::kString: {
      if (*pos + 4 > size) break;
      const uint32_t len = ReadU32(data + *pos);
      *pos += 4;
      if (*pos + len > size) break;
      *v = Value::String(std::string_view(data + *pos, len));
      *pos += len;
      return Status::OK();
    }
    default:
      return Status::IoError(
          StrFormat("spill record has unknown value tag %d",
                    static_cast<int>(tag)));
  }
  return Status::IoError("spill record truncated (value payload)");
}

}  // namespace

void AppendSpillRow(const Row& row, std::string* out) {
  AppendU32(static_cast<uint32_t>(row.size()), out);
  for (const Value& v : row) AppendValue(v, out);
}

Status DecodeSpillRow(const char* data, size_t size, Row* row,
                      size_t* consumed) {
  if (size < 4) return Status::IoError("spill record truncated (row header)");
  size_t pos = 0;
  const uint32_t count = ReadU32(data);
  pos += 4;
  row->clear();
  row->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Value v;
    DECORR_RETURN_IF_ERROR(DecodeValue(data, size, &pos, &v));
    row->push_back(std::move(v));
  }
  *consumed = pos;
  return Status::OK();
}

uint64_t SpillPartitionHash(const Row& key, int depth) {
  // Golden-ratio salt per recursion depth; FNV-style value mixing keeps the
  // bucket choice independent of the in-memory RowHash.
  uint64_t h = 14695981039346656037ULL ^
               (static_cast<uint64_t>(depth + 1) * 0x9E3779B97F4A7C15ULL);
  for (const Value& v : key) {
    h ^= static_cast<uint64_t>(v.Hash()) + 0x9E3779B97F4A7C15ULL;
    h *= 1099511628211ULL;
  }
  // Finalizer (murmur3 fmix64): XOR-by-salt and multiply-by-odd are both
  // triangular in the low bits, so without this fold the fanout modulus sees
  // the depth salt as a mere relabeling of buckets and recursive
  // repartitioning could never split a partition.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

// ---------------------------------------------------------------------------
// SpillFile

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  if (!path_.empty()) std::remove(path_.c_str());
  if (manager_ != nullptr) {
    manager_->ReleaseDisk(bytes_);
    manager_->live_files_.fetch_sub(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// SpillWriter

Status SpillWriter::FlushPage() {
  const size_t payload = std::min(buf_.size(), kPagePayloadCap);
  DECORR_FAULT_POINT("storage.tmpfile.write");
  DECORR_RETURN_IF_ERROR(file_->manager_->ChargeDisk(kSpillPageSize));
  char page[kSpillPageSize];
  std::memset(page, 0, sizeof(page));
  const uint32_t len = static_cast<uint32_t>(payload);
  const uint64_t sum = Fnv1a(buf_.data(), payload);
  std::memcpy(page, &kPageMagic, 4);
  std::memcpy(page + 4, &len, 4);
  std::memcpy(page + 8, &sum, 8);
  std::memcpy(page + kPageHeaderSize, buf_.data(), payload);
  if (std::fwrite(page, 1, kSpillPageSize, file_->file_) != kSpillPageSize) {
    file_->manager_->ReleaseDisk(kSpillPageSize);
    return Status::IoError(
        StrFormat("spill write failed: %s", file_->path_.c_str()));
  }
  file_->bytes_ += kSpillPageSize;
  bytes_ += kSpillPageSize;
  buf_.erase(0, payload);
  return Status::OK();
}

Status SpillWriter::WriteRow(const Row& row) {
  // Record framing: [u32 record length][serialized row]. The length prefix
  // lets the reader size its refill before decoding.
  std::string rec;
  AppendSpillRow(row, &rec);
  AppendU32(static_cast<uint32_t>(rec.size()), &buf_);
  buf_ += rec;
  ++rows_;
  while (buf_.size() >= kPagePayloadCap) {
    DECORR_RETURN_IF_ERROR(FlushPage());
  }
  return Status::OK();
}

Status SpillWriter::Finish() {
  if (finished_) return Status::OK();
  while (!buf_.empty()) {
    DECORR_RETURN_IF_ERROR(FlushPage());
  }
  if (std::fflush(file_->file_) != 0) {
    return Status::IoError(
        StrFormat("spill flush failed: %s", file_->path_.c_str()));
  }
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SpillReader

SpillReader::SpillReader(SpillFile* file) : file_(file) {
  std::fseek(file_->file_, 0, SEEK_SET);
}

Status SpillReader::FillBuffer(size_t need) {
  while (buf_.size() - pos_ < need && !pages_done_) {
    if (next_page_offset_ >= file_->bytes_) {
      pages_done_ = true;
      break;
    }
    DECORR_FAULT_POINT("storage.tmpfile.read");
    char page[kSpillPageSize];
    if (std::fread(page, 1, kSpillPageSize, file_->file_) != kSpillPageSize) {
      return Status::IoError(
          StrFormat("spill read failed (short page): %s",
                    file_->path_.c_str()));
    }
    next_page_offset_ += kSpillPageSize;
    bytes_ += kSpillPageSize;
    uint32_t magic, len;
    uint64_t sum;
    std::memcpy(&magic, page, 4);
    std::memcpy(&len, page + 4, 4);
    std::memcpy(&sum, page + 8, 8);
    if (magic != kPageMagic || len > kPagePayloadCap ||
        Fnv1a(page + kPageHeaderSize, len) != sum) {
      return Status::IoError(
          StrFormat("spill page checksum mismatch: %s",
                    file_->path_.c_str()));
    }
    // Armed in chaos tests to model corruption detected *after* the checksum
    // passed (e.g. bit rot in the header itself).
    DECORR_FAULT_POINT("storage.tmpfile.corrupt");
    // Compact the consumed prefix before appending so the buffer stays
    // bounded by a few pages.
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    buf_.append(page + kPageHeaderSize, len);
  }
  return Status::OK();
}

Status SpillReader::ReadRow(Row* row, bool* eof) {
  *eof = false;
  DECORR_RETURN_IF_ERROR(FillBuffer(4));
  if (buf_.size() - pos_ == 0 && pages_done_) {
    *eof = true;
    return Status::OK();
  }
  if (buf_.size() - pos_ < 4) {
    return Status::IoError("spill stream truncated (record header)");
  }
  const uint32_t len = ReadU32(buf_.data() + pos_);
  pos_ += 4;
  DECORR_RETURN_IF_ERROR(FillBuffer(len));
  if (buf_.size() - pos_ < len) {
    return Status::IoError("spill stream truncated (record body)");
  }
  size_t consumed = 0;
  DECORR_RETURN_IF_ERROR(
      DecodeSpillRow(buf_.data() + pos_, len, row, &consumed));
  if (consumed != len) {
    return Status::IoError("spill record length mismatch");
  }
  pos_ += len;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TempFileManager

TempFileManager::TempFileManager(std::string temp_dir,
                                 int64_t disk_budget_bytes)
    : requested_dir_(std::move(temp_dir)), disk_budget_(disk_budget_bytes) {}

TempFileManager::~TempFileManager() {
  if (!scratch_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir_, ec);  // best effort
  }
}

Status TempFileManager::Open() {
  DECORR_FAULT_POINT("storage.tmpfile.create");
  namespace fs = std::filesystem;
  std::string root = requested_dir_;
  if (root.empty()) {
    const char* env = std::getenv("TMPDIR");
    root = (env != nullptr && *env != '\0') ? env : "/tmp";
  }
  std::error_code ec;
  if (!fs::is_directory(root, ec) || ec) {
    return Status::IoError(StrFormat(
        "spill temp_dir does not exist or is not a directory: %s",
        root.c_str()));
  }
  // Unique per (process, query): queries never share scratch space.
  static std::atomic<uint64_t> g_scratch_seq{0};
  const fs::path dir =
      fs::path(root) /
      StrFormat("decorr-spill-%d-%llu", static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    g_scratch_seq.fetch_add(1, std::memory_order_relaxed)));
  if (!fs::create_directory(dir, ec) || ec) {
    return Status::IoError(StrFormat(
        "cannot create spill scratch directory under %s (unwritable?): %s",
        root.c_str(), ec.message().c_str()));
  }
  scratch_dir_ = dir.string();
  return Status::OK();
}

Result<std::unique_ptr<SpillFile>> TempFileManager::Create(
    const char* label) {
  DECORR_FAULT_POINT("storage.tmpfile.create");
  if (scratch_dir_.empty()) {
    return Status::Internal("TempFileManager::Create before Open");
  }
  const std::string path = StrFormat(
      "%s/%lld-%s.spill", scratch_dir_.c_str(),
      static_cast<long long>(seq_.fetch_add(1, std::memory_order_relaxed)),
      label);
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) {
    return Status::IoError(
        StrFormat("cannot create spill file: %s", path.c_str()));
  }
  live_files_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<SpillFile>(new SpillFile(this, path, f));
}

Result<std::vector<SpillBucket>> CreateSpillBuckets(TempFileManager* temp,
                                                    const char* label,
                                                    int count) {
  std::vector<SpillBucket> buckets;
  buckets.reserve(count);
  for (int i = 0; i < count; ++i) {
    SpillBucket b;
    DECORR_ASSIGN_OR_RETURN(b.file, temp->Create(label));
    b.writer = std::make_unique<SpillWriter>(b.file.get());
    buckets.push_back(std::move(b));
  }
  return buckets;
}

Status TempFileManager::ChargeDisk(int64_t bytes) {
  const int64_t now =
      disk_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (disk_budget_ > 0 && now > disk_budget_) {
    disk_used_.fetch_sub(bytes, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        StrFormat("spill disk budget exceeded: %lld bytes used, budget %lld",
                  static_cast<long long>(now),
                  static_cast<long long>(disk_budget_)));
  }
  return Status::OK();
}

void TempFileManager::ReleaseDisk(int64_t bytes) {
  disk_used_.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace decorr
