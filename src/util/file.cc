#include "util/file.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

namespace fedmigr::util {

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::Internal(op + " failed for " + path + ": " +
                          std::strerror(errno));
}

// Best-effort fsync of a directory so a just-published rename is durable.
void SyncDirectory(const std::string& path) {
  const int fd = ::open(path.empty() ? "." : path.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return ErrnoStatus("open", tmp);
  }
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return ErrnoStatus("write", tmp);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return ErrnoStatus("fsync", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return ErrnoStatus("close", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return ErrnoStatus("rename", path);
  }
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  SyncDirectory(dir);
  return Status::Ok();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  const std::streamsize size = in.tellg();
  if (size < 0) {
    return Status::Internal("cannot determine size: " + path);
  }
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in || in.gcount() != size) {
    return Status::Internal("read failed: " + path);
  }
  return bytes;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    return Status::Internal("remove failed for " + path + ": " +
                            ec.message());
  }
  return Status::Ok();
}

Status MakeDirectories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::Internal("mkdir failed for " + path + ": " + ec.message());
  }
  return Status::Ok();
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status AppendFile::Open(const std::string& path) {
  if (fd_ >= 0) {
    return Status::Internal("AppendFile already open: " + path_);
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return ErrnoStatus("open", path);
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return ErrnoStatus("lseek", path);
  }
  fd_ = fd;
  size_ = static_cast<uint64_t>(end);
  path_ = path;
  return Status::Ok();
}

Status AppendFile::Append(const void* data, size_t size) {
  if (fd_ < 0) {
    return Status::Internal("AppendFile not open");
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, bytes + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path_);
    }
    written += static_cast<size_t>(n);
  }
  size_ += written;
  return Status::Ok();
}

Status AppendFile::Append(const std::vector<uint8_t>& data) {
  return Append(data.data(), data.size());
}

Status AppendFile::Truncate(uint64_t new_size) {
  if (fd_ < 0) {
    return Status::Internal("AppendFile not open");
  }
  if (new_size > size_) {
    return Status::InvalidArgument("Truncate would grow " + path_);
  }
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    return ErrnoStatus("ftruncate", path_);
  }
  if (::lseek(fd_, static_cast<off_t>(new_size), SEEK_SET) < 0) {
    return ErrnoStatus("lseek", path_);
  }
  size_ = new_size;
  return Status::Ok();
}

Status AppendFile::Sync() {
  if (fd_ < 0) {
    return Status::Internal("AppendFile not open");
  }
  if (::fsync(fd_) != 0) {
    return ErrnoStatus("fsync", path_);
  }
  return Status::Ok();
}

Status AppendFile::Close() {
  if (fd_ < 0) {
    return Status::Ok();
  }
  const int fd = fd_;
  fd_ = -1;
  size_ = 0;
  if (::close(fd) != 0) {
    return ErrnoStatus("close", path_);
  }
  return Status::Ok();
}

Result<std::vector<std::string>> ListDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("cannot list " + dir + ": " + ec.message());
  }
  std::vector<std::string> names;
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec)) {
      names.push_back(entry.path().filename().string());
    }
  }
  return names;
}

}  // namespace fedmigr::util
