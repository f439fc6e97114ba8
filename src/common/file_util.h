#ifndef BRAHMA_COMMON_FILE_UTIL_H_
#define BRAHMA_COMMON_FILE_UTIL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/params.h"
#include "common/status.h"

namespace brahma {

// CRC-32C (Castagnoli, kCrcPolynomial), reflected, table-driven. The
// checksum every durable byte in the WAL and checkpoint files is covered
// by; recovery trusts nothing that does not verify (DESIGN.md §12).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// Media-fault injection for the file layer. Every FileHandle operation
// threads a failpoint site (`<prefix>:open/read/write/fsync`, plus
// `<prefix>:rename` in AtomicRename); *when* a fault fires is decided by
// the existing failpoint registry (crash/error actions with
// .nth/.times/.prob triggers), and this singleton holds the *shape* of
// the fault — how many bytes of a torn write reach the platter, how
// short a short read comes up — plus the monotone injected-fault counter
// (fault.media_faults_injected in Database::Metrics()).
//
// Post-mortem faults (bit flip, truncation, deletion applied to the
// on-disk state after a simulated kill) go through InjectFileFault below
// and count against the same counter.
class MediaFaultInjector {
 public:
  static MediaFaultInjector& Instance();

  MediaFaultInjector(const MediaFaultInjector&) = delete;
  MediaFaultInjector& operator=(const MediaFaultInjector&) = delete;

  // Bytes of a failed write that reach the file before the injected
  // status propagates. kHalf (the default) tears the write in the middle.
  static constexpr uint64_t kHalf = ~uint64_t{0};
  void set_torn_write_bytes(uint64_t n) {
    torn_write_bytes_.store(n, std::memory_order_relaxed);
  }
  uint64_t torn_write_bytes() const {
    return torn_write_bytes_.load(std::memory_order_relaxed);
  }

  // Bytes a failed read returns (the device came up short).
  void set_short_read_bytes(uint64_t n) {
    short_read_bytes_.store(n, std::memory_order_relaxed);
  }
  uint64_t short_read_bytes() const {
    return short_read_bytes_.load(std::memory_order_relaxed);
  }

  void Reset() {
    torn_write_bytes_.store(kHalf, std::memory_order_relaxed);
    short_read_bytes_.store(0, std::memory_order_relaxed);
  }

  // Monotone count of injected media faults (in-flight and post-mortem).
  uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }
  void RecordInjected() {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  MediaFaultInjector() = default;

  std::atomic<uint64_t> torn_write_bytes_{kHalf};
  std::atomic<uint64_t> short_read_bytes_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

// RAII POSIX file with positional reads/writes. Every operation passes a
// failpoint site named `<site_prefix>:<op>` so tests can fail the WAL's
// device ("media:wal") independently of the checkpoint's ("media:ckpt").
class FileHandle {
 public:
  FileHandle() = default;
  ~FileHandle() { Close(); }

  FileHandle(FileHandle&& other) noexcept { *this = std::move(other); }
  FileHandle& operator=(FileHandle&& other) noexcept;
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  // Opens (optionally creating/truncating) path for read+write.
  static Status Open(const std::string& path, bool create, bool truncate,
                     const std::string& site_prefix, FileHandle* out);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  // Writes exactly n bytes at off. On an injected fault, only the
  // injector's torn-write prefix reaches the file and the armed status
  // propagates; *written (may be null) always reports the bytes that hit
  // the file.
  Status WriteAt(uint64_t off, const void* data, size_t n, size_t* written);

  // Reads up to n bytes at off; *read reports the bytes obtained (short
  // at EOF is not an error). An injected fault cuts the read short and
  // propagates the armed status.
  Status ReadAt(uint64_t off, void* data, size_t n, size_t* read) const;

  // Forces written data to the device. FsyncMode::kNoop counts the force
  // without paying the syscall (crash-simulation tests: the process does
  // not actually die, so the page cache is as durable as it needs to be).
  Status Sync(FsyncMode mode);

  Status Truncate(uint64_t size);
  Status Size(uint64_t* out) const;
  void Close();

 private:
  int fd_ = -1;
  std::string path_;
  std::string site_prefix_ = "media";
};

// --- directory / whole-file helpers --------------------------------------
Status MakeDirs(const std::string& path);
Status ListDir(const std::string& dir, std::vector<std::string>* names);
Status RemoveFile(const std::string& path);
// rename(2) + fsync of the containing directory: the publish step of the
// write-temp-then-rename protocol. Threads `<site_prefix>:rename`.
Status AtomicRename(const std::string& from, const std::string& to,
                    const std::string& site_prefix, FsyncMode mode);
Status SyncDir(const std::string& dir, FsyncMode mode);
Status RemoveDirRecursive(const std::string& path);
Status ReadEntireFile(const std::string& path, const std::string& site_prefix,
                      std::vector<uint8_t>* out);
bool FileExists(const std::string& path);

// --- post-mortem corruption ----------------------------------------------
// Damages an on-disk file the way failing media would, after the process
// is already "dead": the crash fuzzer applies one of these between
// SimulateCrash and Recover. param: kBitFlip = bit index (taken modulo
// the file's bit length), kTruncateAt = new byte length (modulo size),
// kZeroTail = first zeroed byte offset (modulo size), kDelete = unused.
enum class FileFaultKind : uint8_t { kBitFlip, kTruncateAt, kZeroTail, kDelete };
Status InjectFileFault(const std::string& path, FileFaultKind kind,
                       uint64_t param);

}  // namespace brahma

#endif  // BRAHMA_COMMON_FILE_UTIL_H_
