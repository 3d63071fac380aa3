#include "experiments/crash_matrix.hh"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <stdexcept>

#include "index/fingerprint_index.hh"
#include "index/snapshot.hh"
#include "pipeline/profile_store.hh"
#include "trace/trace_file.hh"
#include "util/checked_io.hh"
#include "util/failpoint.hh"

namespace mica::experiments
{

bool
crashMatrixSupported()
{
    return MICA_FAILPOINTS != 0;
}

namespace
{

namespace fs = std::filesystem;

// Child exit codes other than util::kCrashExitCode are harness
// verdicts: the crash never happened, which is itself a failure.
constexpr int kChildArmFailed = 40;
constexpr int kChildThrew = 41;
constexpr int kChildSurvived = 42;

/**
 * One writer family: prepare() commits a valid baseline, mutate()
 * performs the write the crash lands in (run faulted in the child,
 * then unfaulted for recovery), validateNew() accepts only the
 * completed post-mutate state. `file` is the destination the
 * old-or-new contract is checked on. validateOld() accepts the
 * pre-crash state given the file's pre-crash bytes; when empty, the
 * survivor must be byte-identical to them.
 */
struct Scenario
{
    const char *prefix;
    const char *file;
    std::function<void(const std::string &dir)> prepare;
    std::function<void(const std::string &dir)> mutate;
    std::function<bool(const std::string &dir)> validateNew;
    std::function<bool(const std::string &dir, const std::string &before)>
        validateOld;
};

/** @return a profile whose every value is distinct and non-zero. */
pipeline::StoredProfile
profileNamed(const std::string &name)
{
    pipeline::StoredProfile p;
    p.mica.name = name;
    p.mica.instCount = name.size();
    for (size_t i = 0; i < p.mica.values.size(); ++i)
        p.mica.values[i] = double(name.size()) + 0.25 * double(i);
    p.hpc.name = name;
    p.hpc.instCount = p.mica.instCount;
    p.hpc.ipcEv56 = 0.5;
    p.hpc.ipcEv67 = 1.5;
    return p;
}

/** @return whether the store holds @p want, bit for bit. */
bool
holdsExactly(const pipeline::StoredProfile *got,
             const pipeline::StoredProfile &want)
{
    if (!got || got->mica.instCount != want.mica.instCount ||
        got->hpc.instCount != want.hpc.instCount)
        return false;
    const std::vector<double> a = got->hpc.toVector();
    const std::vector<double> b = want.hpc.toVector();
    return std::memcmp(got->mica.values.data(), want.mica.values.data(),
                       sizeof(want.mica.values)) == 0 &&
        std::memcmp(a.data(), b.data(), b.size() * sizeof(double)) == 0;
}

std::string
slurp(const std::string &path)
{
    return util::readFileBytes(path, "store.load");
}

/** @return a deterministic tiny index; @p salt varies the contents. */
index::FingerprintIndex
smallIndex(double salt)
{
    Matrix raw(4, 3);
    raw.rowNames = {"a", "b", "c", "d"};
    raw.colNames = {"x", "y", "z"};
    for (size_t r = 0; r < raw.rows(); ++r) {
        for (size_t c = 0; c < raw.cols(); ++c)
            raw(r, c) = salt + double(r * 3 + c) * (1.0 + salt);
    }
    return index::FingerprintIndex::build(raw);
}

void
writeTrace(const std::string &path, size_t records)
{
    TraceFileWriter w(path);
    InstRecord rec;
    for (size_t i = 0; i < records; ++i) {
        rec.pc = 0x1000 + i * 4;
        rec.cls = InstClass::IntAlu;
        w.append(rec);
    }
    w.close();
}

std::vector<Scenario>
scenarios()
{
    const pipeline::StoreKey key;
    const std::string alpha = "crash/alpha.a";
    const std::string beta = "crash/beta.b";
    // Both store scenarios mutate the same way: open, then put beta.
    const auto putBeta = [key, beta](const std::string &dir) {
        pipeline::ProfileStore s(dir, key);
        s.open();
        s.put(profileNamed(beta));
    };
    const auto holdsBoth = [key, alpha, beta](const std::string &dir) {
        pipeline::ProfileStore s(dir, key);
        return s.open() && s.size() == 2 &&
            holdsExactly(s.find(alpha), profileNamed(alpha)) &&
            holdsExactly(s.find(beta), profileNamed(beta));
    };
    return {
        // The rewrite: prepare leaves a torn last frame, so the put
        // after open() rewrites the store instead of appending.
        {"store.put", "profiles.bin",
         [key, alpha](const std::string &dir) {
             pipeline::ProfileStore s(dir, key);
             s.put(profileNamed(alpha));
             s.put(profileNamed("crash/gamma.c"));
             const std::string bin = dir + "/profiles.bin";
             fs::resize_file(bin, fs::file_size(bin) - 5);
         },
         putBeta, holdsBoth, nullptr},
        // The append: a crash leaves the old bytes plus at most part
        // of beta's frame. The old state is any file that starts with
        // the baseline's bytes and reads back as exactly the baseline.
        {"store.append", "profiles.bin",
         [key, alpha](const std::string &dir) {
             pipeline::ProfileStore s(dir, key);
             s.put(profileNamed(alpha));
         },
         putBeta, holdsBoth,
         [key, alpha](const std::string &dir, const std::string &before) {
             if (slurp(dir + "/profiles.bin").compare(0, before.size(),
                                                      before) != 0)
                 return false;
             pipeline::ProfileStore s(dir, key);
             return s.open() && s.size() == 1 &&
                 holdsExactly(s.find(alpha), profileNamed(alpha));
         }},
        {"index.snapshot", "index.bin",
         [](const std::string &dir) {
             std::string why;
             if (!index::saveIndexSnapshot(smallIndex(0.0),
                                           dir + "/index.bin",
                                           "crash-key", &why))
                 throw std::runtime_error("baseline snapshot: " + why);
         },
         [](const std::string &dir) {
             std::string why;
             if (!index::saveIndexSnapshot(smallIndex(1.0),
                                           dir + "/index.bin",
                                           "crash-key", &why))
                 throw std::runtime_error("snapshot save: " + why);
         },
         [](const std::string &dir) {
             index::FingerprintIndex idx;
             std::string why;
             return index::loadIndexSnapshot(dir + "/index.bin",
                                             "crash-key", &idx, &why);
         },
         nullptr},
        {"trace.record", "crash__t.a.trace",
         [](const std::string &dir) {
             writeTrace(dir + "/crash__t.a.trace", 100);
         },
         [](const std::string &dir) {
             writeTrace(dir + "/crash__t.a.trace", 120);
         },
         [](const std::string &dir) {
             return probeTraceFile(dir + "/crash__t.a.trace")
                        .recordCount == 120;
         },
         nullptr},
    };
}

bool
anyTmpDebris(const std::string &dir)
{
    for (const auto &de : fs::directory_iterator(dir)) {
        if (de.path().extension() == ".tmp")
            return true;
    }
    return false;
}

CrashMatrixRow
runCell(const util::FailpointInfo &site, const Scenario &sc,
        const std::string &dir)
{
    CrashMatrixRow row;
    row.site = site.name;
    row.scenario = sc.prefix;

    fs::create_directories(dir);
    sc.prepare(dir);
    const std::string target = dir + "/" + sc.file;
    const std::string before = slurp(target);

    const pid_t pid = ::fork();
    if (pid < 0) {
        row.detail = std::string("fork: ") + std::strerror(errno);
        return row;
    }
    if (pid == 0) {
        // Child: the crash victim. Expected error chatter (store
        // warnings, ...) goes nowhere; the only report that matters
        // is the exit code.
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, 1);
            ::dup2(devnull, 2);
        }
        std::string err;
        if (!util::armFailpoints(site.name + "=abort@1", &err))
            ::_exit(kChildArmFailed);
        try {
            sc.mutate(dir);
        } catch (...) {
            ::_exit(kChildThrew);
        }
        ::_exit(kChildSurvived);
    }

    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status)) {
        row.detail = "child did not exit normally";
        return row;
    }
    switch (WEXITSTATUS(status)) {
    case util::kCrashExitCode:
        row.crashed = true;
        break;
    case kChildArmFailed:
        row.detail = "arming the failpoint failed in the child";
        return row;
    case kChildThrew:
        row.detail = "fault surfaced as an exception, not a crash";
        return row;
    case kChildSurvived:
        row.detail = "failpoint never fired (site not on this path)";
        return row;
    default:
        row.detail =
            "unexpected child exit " +
            std::to_string(WEXITSTATUS(status));
        return row;
    }

    // The contract: the survivor is the complete old state or the
    // complete new one. (With abort@1 every rewrite site fires before
    // the rename, so the old state is the expected arm there; an
    // append crashed at its fsync has already written the new one.)
    try {
        row.oldValid = sc.validateOld ? sc.validateOld(dir, before)
                                      : slurp(target) == before;
    } catch (...) {
        row.oldValid = false;
    }
    if (!row.oldValid) {
        try {
            row.newValid = sc.validateNew(dir);
        } catch (...) {
            row.newValid = false;
        }
    }
    if (!row.oldValid && !row.newValid) {
        row.detail = "survivor is neither the old nor the new file";
        return row;
    }

    // Recovery: the same write, unfaulted, must commit over whatever
    // the crash left (including stale .tmp debris) and validate.
    try {
        sc.mutate(dir);
    } catch (const std::exception &e) {
        row.detail = std::string("recovery write failed: ") + e.what();
        return row;
    }
    try {
        if (!sc.validateNew(dir)) {
            row.detail = "recovered file does not validate";
            return row;
        }
    } catch (const std::exception &e) {
        row.detail = std::string("recovered file rejected: ") + e.what();
        return row;
    }
    if (anyTmpDebris(dir)) {
        row.detail = ".tmp debris left after recovery";
        return row;
    }
    row.recovered = true;
    return row;
}

} // namespace

std::vector<CrashMatrixRow>
runCrashMatrix(const std::string &workDir)
{
    std::vector<Scenario> scs = scenarios();
    std::vector<CrashMatrixRow> rows;
    for (const util::FailpointInfo &fp : util::knownFailpoints()) {
        if (!fp.writeSite)
            continue;
        const Scenario *sc = nullptr;
        for (const Scenario &s : scs) {
            if (fp.name.rfind(std::string(s.prefix) + ".", 0) == 0)
                sc = &s;
        }
        if (!sc) {
            CrashMatrixRow row;
            row.site = fp.name;
            row.scenario = "?";
            row.detail = "write site has no scenario mapped";
            rows.push_back(row);
            continue;
        }
        // One scratch dir per site: cells are fully independent.
        std::string dir = workDir + "/" + fp.name;
        for (auto &ch : dir) {
            if (ch == '.')
                ch = '_';
        }
        rows.push_back(runCell(fp, *sc, dir));
    }
    return rows;
}

} // namespace mica::experiments
