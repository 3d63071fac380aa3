/**
 * @file
 * Checked POSIX file I/O: every failure carries op + path + errno,
 * and every call hosts a fault-injection hook.
 *
 * The persistence stack (profile store, index record, trace files)
 * funnels its opens/reads/writes/fsyncs/renames through this one
 * layer, which buys two things at once:
 *
 *  - **Errors that name themselves.** An IoError always says which
 *    operation failed, on which path, with which errno — "write
 *    failed" with no path can never reach a user again.
 *
 *  - **One injection surface.** Each call evaluates the failpoint
 *    named "<sitePrefix>.<op>" (e.g. prefix "store.put" makes the
 *    write call evaluate "store.put.write"), so arming a spec drills
 *    faults into all three on-disk formats without per-format hooks;
 *    see failpoint.hh for the spec grammar and registry.
 *
 * The helpers cover the shapes the formats actually use: slurp a
 * whole file for in-memory parsing (readFileBytes), the atomic
 * write-.tmp/fsync/rename commit that is the repo-wide durability
 * idiom (atomicWriteFile, or a streaming CheckedFile + checkedRename
 * for the trace writer), and the profile store's checksummed append
 * (CheckedFile::openAppend + writeAll + syncToDisk). Failed commits
 * always remove their .tmp, so debris from one failed attempt never
 * blocks the next.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mica::util
{

/** A failed file operation: what, where, and the OS's why. */
class IoError : public std::runtime_error
{
  public:
    IoError(const std::string &op, const std::string &path, int err);

    /** @return the failed operation ("open", "write", "rename", …). */
    const std::string &op() const { return op_; }

    /** @return the file the operation was on. */
    const std::string &path() const { return path_; }

    /** @return the errno (ENOENT, EACCES, ENOSPC, …; 0 = logical). */
    int code() const { return err_; }

  private:
    std::string op_;
    std::string path_;
    int err_;
};

/**
 * RAII wrapper around one file descriptor. Every method throws
 * IoError on failure (looping on EINTR first) and evaluates the
 * "<sitePrefix>.<op>" failpoint before touching the fd. Move-only;
 * the destructor closes silently — call close() for a checked close.
 */
class CheckedFile
{
  public:
    /** Open @p path read-only. @throws IoError (code ENOENT when absent). */
    static CheckedFile openRead(const std::string &path,
                                const std::string &sitePrefix);

    /** Create/truncate @p path for writing. @throws IoError. */
    static CheckedFile openWrite(const std::string &path,
                                 const std::string &sitePrefix);

    /**
     * Open an existing @p path so every write lands at its end
     * (O_APPEND). @throws IoError (code ENOENT when absent).
     */
    static CheckedFile openAppend(const std::string &path,
                                  const std::string &sitePrefix);

    CheckedFile() = default;
    ~CheckedFile();

    CheckedFile(CheckedFile &&other) noexcept;
    CheckedFile &operator=(CheckedFile &&other) noexcept;
    CheckedFile(const CheckedFile &) = delete;
    CheckedFile &operator=(const CheckedFile &) = delete;

    /** Write all @p n bytes. @throws IoError (short write = ENOSPC). */
    void writeAll(const void *buf, size_t n);

    /** Read exactly @p n bytes; premature EOF throws (code 0). */
    void readExact(void *buf, size_t n);

    /** Read up to @p n bytes. @return bytes read (0 at EOF). */
    size_t readUpTo(void *buf, size_t n);

    /** Reposition to absolute offset @p off. */
    void seekTo(uint64_t off);

    /** @return file size via fstat. */
    uint64_t size();

    /** fsync the fd (the durability point of a commit). */
    void syncToDisk();

    /** Checked close; idempotent. */
    void close();

    bool isOpen() const { return fd_ >= 0; }

    const std::string &path() const { return path_; }

  private:
    static CheckedFile openWith(const std::string &path,
                                const std::string &sitePrefix, int flags);

    int fd_ = -1;
    std::string path_;
    std::string prefix_;
};

/** Checked ::rename evaluating "<sitePrefix>.rename". @throws IoError. */
void checkedRename(const std::string &from, const std::string &to,
                   const std::string &sitePrefix);

/**
 * Slurp a whole file into memory for parsing.
 * @throws IoError; callers treat code()==ENOENT as "absent, normal".
 */
std::string readFileBytes(const std::string &path,
                          const std::string &sitePrefix);

/**
 * The atomic-commit idiom in one call: write @p n bytes to
 * "<path>.tmp", fsync, and rename into place. On any failure the .tmp
 * is removed and the previous @p path (if any) is left untouched.
 * @throws IoError naming the step that failed.
 */
void atomicWriteFile(const std::string &path, const void *data, size_t n,
                     const std::string &sitePrefix);

inline void
atomicWriteFile(const std::string &path, const std::string &data,
                const std::string &sitePrefix)
{
    atomicWriteFile(path, data.data(), data.size(), sitePrefix);
}

} // namespace mica::util
