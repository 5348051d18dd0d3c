// Durable file I/O for checkpoints and run snapshots.
//
// `AtomicWriteFile` is the crash-safety primitive: the payload is written
// to `<path>.tmp`, fsync'd, and renamed over the target, so a crash at any
// instant leaves either the old file or the new one at `path` — never a
// torn mixture. The containing directory is fsync'd after the rename so
// the publish survives a power loss too.

#ifndef FEDMIGR_UTIL_FILE_H_
#define FEDMIGR_UTIL_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fedmigr::util {

// Atomically replaces `path` with `data` (tmp file + fsync + rename).
Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& data);

// Reads an entire file into memory.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

bool FileExists(const std::string& path);

// Removes a file; missing files are not an error.
Status RemoveFile(const std::string& path);

// Creates a directory (and parents); an existing directory is not an error.
Status MakeDirectories(const std::string& path);

// Names of the regular files directly inside `dir` (not full paths),
// unsorted. Missing or unreadable directories yield an error.
Result<std::vector<std::string>> ListDirectory(const std::string& dir);

// Append-only file handle for journals: the complement of AtomicWriteFile
// for logs that grow one framed chunk at a time. Appends are plain write()
// calls (a crash can tear at most the final frame — readers validate frame
// CRCs and truncate the torn tail); Sync() makes everything written so far
// durable. Truncate() discards a suffix, which resume uses to drop frames
// past the last committed epoch.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  // Opens (creating if missing) and positions the write cursor at the end.
  Status Open(const std::string& path);
  bool is_open() const { return fd_ >= 0; }
  // Current write offset == file size while the handle is open.
  uint64_t size() const { return size_; }

  Status Append(const void* data, size_t size);
  Status Append(const std::vector<uint8_t>& data);
  // Shrinks the file to `new_size` bytes and moves the cursor there.
  Status Truncate(uint64_t new_size);
  Status Sync();
  Status Close();

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

}  // namespace fedmigr::util

#endif  // FEDMIGR_UTIL_FILE_H_
