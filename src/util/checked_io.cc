#include "util/checked_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/failpoint.hh"

namespace mica::util
{

namespace
{

/**
 * Evaluate "<prefix>.<op>" and carry out everything the decision asks
 * for that is not write-specific: fail with an errno, throw, sleep,
 * or simulate a crash. @return the decision so write paths can act on
 * ShortWrite/Abort byte caps. The disarmed path does no string
 * concatenation — failpointsArmed() is one atomic load.
 */
FailDecision
checkSite(const std::string &prefix, const char *op,
          const std::string &path, bool isWrite)
{
    if (!failpointsArmed())
        return {};
    FailDecision d = evalFailpoint(prefix + "." + op);
    switch (d.op) {
      case FailOp::None:
        break;
      case FailOp::Error:
        throw IoError(op, path, d.err);
      case FailOp::Throw:
        throw std::runtime_error(std::string("injected fault at ") +
                                 d.site + " (" + path + ")");
      case FailOp::Delay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(d.param));
        d = {};    // proceed normally after the stall
        break;
      case FailOp::ShortWrite:
        if (!isWrite)
            throw IoError(op, path, d.err);
        break;    // write path truncates, then fails
      case FailOp::Abort:
        if (!isWrite)
            ::_exit(kCrashExitCode);
        break;    // write path tears the write first
    }
    return d;
}

} // namespace

IoError::IoError(const std::string &op, const std::string &path, int err)
    : std::runtime_error(op + " failed: " + path + ": " +
                         (err ? std::strerror(err)
                              : "unexpected end of file")),
      op_(op), path_(path), err_(err)
{
}

CheckedFile
CheckedFile::openWith(const std::string &path,
                      const std::string &sitePrefix, int flags)
{
    checkSite(sitePrefix, "open", path, false);
    int fd;
    do {
        fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        throw IoError("open", path, errno);
    CheckedFile f;
    f.fd_ = fd;
    f.path_ = path;
    f.prefix_ = sitePrefix;
    return f;
}

CheckedFile
CheckedFile::openRead(const std::string &path,
                      const std::string &sitePrefix)
{
    return openWith(path, sitePrefix, O_RDONLY);
}

CheckedFile
CheckedFile::openWrite(const std::string &path,
                       const std::string &sitePrefix)
{
    return openWith(path, sitePrefix, O_WRONLY | O_CREAT | O_TRUNC);
}

CheckedFile
CheckedFile::openAppend(const std::string &path,
                        const std::string &sitePrefix)
{
    return openWith(path, sitePrefix, O_WRONLY | O_APPEND);
}

CheckedFile::~CheckedFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

CheckedFile::CheckedFile(CheckedFile &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)), prefix_(std::move(other.prefix_))
{
}

CheckedFile &
CheckedFile::operator=(CheckedFile &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        path_ = std::move(other.path_);
        prefix_ = std::move(other.prefix_);
    }
    return *this;
}

void
CheckedFile::writeAll(const void *buf, size_t n)
{
    FailDecision d = checkSite(prefix_, "write", path_, true);
    size_t cap = n;
    if (d.op == FailOp::ShortWrite)
        cap = d.param == UINT64_MAX ? n / 2
                                    : std::min<uint64_t>(d.param, n);
    else if (d.op == FailOp::Abort)
        cap = n / 2;

    const char *p = static_cast<const char *>(buf);
    size_t left = cap;
    while (left > 0) {
        ssize_t w = ::write(fd_, p, left);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            throw IoError("write", path_, errno);
        }
        p += w;
        left -= size_t(w);
    }
    if (d.op == FailOp::Abort)
        ::_exit(kCrashExitCode);    // simulated crash: torn write
    if (cap != n)
        throw IoError("write", path_, d.err ? d.err : ENOSPC);
}

void
CheckedFile::readExact(void *buf, size_t n)
{
    const size_t got = readUpTo(buf, n);
    if (got != n)
        throw IoError("read", path_, 0);    // 0 = premature EOF
}

size_t
CheckedFile::readUpTo(void *buf, size_t n)
{
    checkSite(prefix_, "read", path_, false);
    char *p = static_cast<char *>(buf);
    size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd_, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throw IoError("read", path_, errno);
        }
        if (r == 0)
            break;
        got += size_t(r);
    }
    return got;
}

void
CheckedFile::seekTo(uint64_t off)
{
    if (::lseek(fd_, static_cast<off_t>(off), SEEK_SET) < 0)
        throw IoError("seek", path_, errno);
}

uint64_t
CheckedFile::size()
{
    struct stat st = {};
    if (::fstat(fd_, &st) != 0)
        throw IoError("stat", path_, errno);
    return static_cast<uint64_t>(st.st_size);
}

void
CheckedFile::syncToDisk()
{
    // Not a "write" for failpoint purposes: there are no bytes to
    // tear, so Abort crashes here and ShortWrite degrades to Error.
    checkSite(prefix_, "fsync", path_, false);
    int rc;
    do {
        rc = ::fsync(fd_);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0)
        throw IoError("fsync", path_, errno);
}

void
CheckedFile::close()
{
    if (fd_ < 0)
        return;
    int rc;
    do {
        rc = ::close(fd_);
    } while (rc != 0 && errno == EINTR);
    fd_ = -1;
    if (rc != 0)
        throw IoError("close", path_, errno);
}

void
checkedRename(const std::string &from, const std::string &to,
              const std::string &sitePrefix)
{
    // Like fsync: a simulated crash lands *before* the rename — the
    // destination keeps its previous (complete) contents.
    checkSite(sitePrefix, "rename", to, false);
    if (::rename(from.c_str(), to.c_str()) != 0)
        throw IoError("rename", to, errno);
}

std::string
readFileBytes(const std::string &path, const std::string &sitePrefix)
{
    CheckedFile f = CheckedFile::openRead(path, sitePrefix);
    std::string out;
    out.resize(f.size());
    // The file can legitimately grow or shrink between the stat and
    // the read (another process committing); read what is actually
    // there and size the result to it.
    const size_t got = f.readUpTo(out.data(), out.size());
    out.resize(got);
    f.close();
    return out;
}

void
atomicWriteFile(const std::string &path, const void *data, size_t n,
                const std::string &sitePrefix)
{
    const std::string tmp = path + ".tmp";
    try {
        CheckedFile f = CheckedFile::openWrite(tmp, sitePrefix);
        f.writeAll(data, n);
        f.syncToDisk();
        f.close();
        checkedRename(tmp, path, sitePrefix);
    } catch (...) {
        // A failed commit must never leave debris that blocks (or
        // worse, gets mistaken for) the next attempt.
        ::unlink(tmp.c_str());
        throw;
    }
}

} // namespace mica::util
