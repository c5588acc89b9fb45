#include "util/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/error.h"
#include "util/failpoint.h"

namespace nwdec {

namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw io_error(what + " '" + path + "' (" + std::strerror(errno) + ")");
}

// Full-buffer write(2) loop; returns false (with errno set) on failure.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::string parent_of(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  return parent.empty() ? std::string(".") : parent.string();
}

}  // namespace

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("cannot open", path);
  }
  // Size the buffer once from fstat, so the chunked reads below append
  // into reserved capacity instead of regrowing it (a file that grows
  // meanwhile still reads in full).
  std::string contents;
  struct stat info {};
  if (::fstat(fd, &info) == 0 && S_ISREG(info.st_mode)) {
    contents.reserve(static_cast<std::size_t>(info.st_size));
  }
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("cannot read", path);
    }
    if (n == 0) break;
    contents.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return contents;
}

void write_file_atomic(const std::string& path, std::string_view contents,
                       bool sync) {
  const std::string tmp = path + ".tmp";
  NWDEC_FAILPOINT("atomic_write.before_tmp");

  // Scope guard: any exit before the rename commits -- an I/O error or a
  // throwing failpoint -- closes the fd and removes the tmp file, so a
  // *failed* replacement leaves no droppings. (A killed process still
  // leaves the tmp; open() discards stale tmps for that case.)
  struct pending_tmp {
    const std::string& name;
    int fd = -1;
    bool committed = false;
    ~pending_tmp() {
      if (committed) return;
      if (fd >= 0) ::close(fd);
      ::unlink(name.c_str());
    }
  } pending{tmp};

  pending.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (pending.fd < 0) throw_errno("cannot create", tmp);

  // Two half-writes around a failpoint so the crash suite can leave a
  // genuinely torn tmp file behind -- the recovery contract is that a torn
  // *tmp* is garbage to discard, never the live file.
  const std::size_t half = contents.size() / 2;
  bool ok = write_all(pending.fd, contents.data(), half);
  if (ok) NWDEC_FAILPOINT("atomic_write.partial");
  ok = ok &&
       write_all(pending.fd, contents.data() + half, contents.size() - half);
  if (!ok) throw_errno("cannot write", tmp);
  NWDEC_FAILPOINT("atomic_write.before_fsync");
  if (sync && ::fsync(pending.fd) != 0) throw_errno("cannot fsync", tmp);
  const int fd = pending.fd;
  pending.fd = -1;  // close exactly once, below
  if (::close(fd) != 0) throw_errno("cannot close", tmp);
  NWDEC_FAILPOINT("atomic_write.before_rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("cannot rename into place", path);
  }
  pending.committed = true;
  NWDEC_FAILPOINT("atomic_write.after_rename");
  if (sync) fsync_parent_dir(path);
}

std::string quarantine_file(const std::string& path) {
  for (std::size_t n = 1;; ++n) {
    const std::string candidate = path + ".corrupt-" + std::to_string(n);
    if (std::filesystem::exists(candidate)) continue;
    if (::rename(path.c_str(), candidate.c_str()) != 0) {
      throw_errno("cannot quarantine", path);
    }
    fsync_parent_dir(path);
    return candidate;
  }
}

void fsync_parent_dir(const std::string& path) {
  const int fd = ::open(parent_of(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);  // best effort by contract
  ::close(fd);
}

}  // namespace nwdec
