#include "common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"

namespace qsteer {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("cannot open directory", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("cannot fsync directory", dir);
  return Status::OK();
}

}  // namespace

// qsteer-lint: allow(crc-before-trust) this IS the raw-read primitive; the verifying ReadArtifact layers on top
Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  std::string content;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read failed: " + path);
  return content;
}

Status AtomicWriteFile(const std::string& path, const std::string& content, bool sync) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("cannot create", tmp);
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Errno("write failed", tmp);
    }
    written += static_cast<size_t>(n);
  }
  if (sync && ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Errno("fsync failed", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Errno("close failed", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Errno("rename failed", tmp);
  }
  // The rename itself must survive a crash: fsync the directory entry.
  if (sync) return SyncDir(DirOf(path));
  return Status::OK();
}

namespace {

constexpr size_t kFooterLen = sizeof("# crc32 01234567\n") - 1;

/// The footer line over `content`: exactly 8 lowercase hex digits. Readers
/// compare it byte for byte, so a short form, a sign or a flipped case bit
/// never verifies.
std::string FooterFor(std::string_view content) {
  char footer[kFooterLen + 1];
  std::snprintf(footer, sizeof(footer), "# crc32 %08x\n", Crc32(content));
  return footer;
}

}  // namespace

Status WriteArtifact(const std::string& path, std::string_view header, std::string_view body,
                     bool sync) {
  std::string content;
  content.reserve(header.size() + 1 + body.size() + kFooterLen);
  content.append(header);
  content.push_back('\n');
  content.append(body);
  content += FooterFor(content);
  return AtomicWriteFile(path, content, sync);
}

Result<std::string> ReadArtifact(const std::string& path, std::string_view header) {
  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return read;
  std::string content = std::move(read.value());

  if (content.size() < kFooterLen) {
    return Status::InvalidArgument("missing crc32 footer (torn file): " + path);
  }
  const size_t body_end = content.size() - kFooterLen;
  if (content.compare(body_end, kFooterLen,
                      FooterFor(std::string_view(content).substr(0, body_end))) != 0) {
    return Status::InvalidArgument("missing or mismatching crc32 footer (torn or corrupt file): " +
                                   path);
  }
  content.resize(body_end);
  if (content.size() <= header.size() || content.compare(0, header.size(), header) != 0 ||
      content[header.size()] != '\n') {
    return Status::FailedPrecondition("expected header '" + std::string(header) + "': " + path);
  }
  content.erase(0, header.size() + 1);
  return content;
}

}  // namespace qsteer
