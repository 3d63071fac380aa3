#include "failpoint.hh"

#if MICA_FAILPOINTS

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hh"

namespace mica::util
{

namespace
{

/**
 * The fixed site registry. Names are string literals so FailDecision
 * can point at them without lifetime concerns; the write-site flag
 * marks the durable-write paths the crash matrix must cover. Adding
 * an instrumented call site means adding a row here — arming a name
 * that is not in this table is a spec error, so the registry can
 * never drift silently behind the code.
 */
struct SiteDef
{
    const char *name;
    bool writeSite;
};

constexpr SiteDef kSites[] = {
    // Profile store rewrite (put: serialize + .tmp + rename).
    {"store.put.open", true},
    {"store.put.write", true},
    {"store.put.fsync", true},
    {"store.put.rename", true},
    // Profile store append (put: one checksummed frame + fsync).
    {"store.append.open", true},
    {"store.append.write", true},
    {"store.append.fsync", true},
    // Profile store load.
    {"store.load.open", false},
    {"store.load.read", false},
    // Index snapshot save (.tmp + rename) and load.
    {"index.snapshot.open", true},
    {"index.snapshot.write", true},
    {"index.snapshot.fsync", true},
    {"index.snapshot.rename", true},
    {"index.load.open", false},
    {"index.load.read", false},
    // Trace recording (.tmp + rename) and the read paths.
    {"trace.record.open", true},
    {"trace.record.write", true},
    {"trace.record.fsync", true},
    {"trace.record.rename", true},
    {"trace.probe.open", false},
    {"trace.probe.read", false},
    {"trace.chunk.read", false},
    {"trace.replay.open", false},
    // Analyzer-stage hook (sweep quarantine of a throwing job).
    {"pipeline.analyze", false},
    // Service daemon connection handling: a fired site fails one
    // client's accept/read/write, which quarantines that connection —
    // the daemon itself must stay up (tested in CI's serve smoke).
    {"serve.accept", false},
    {"serve.read", false},
    {"serve.write", false},
};

constexpr size_t kSiteCount = sizeof(kSites) / sizeof(kSites[0]);

enum class TriggerKind : uint8_t
{
    Always,    ///< fire every evaluation
    Once,      ///< fire on evaluation #n only
    Every,     ///< fire on every nth evaluation
    Prob,      ///< fire with probability p (seeded RNG)
};

struct ArmedPoint
{
    FailOp op = FailOp::None;
    int err = EIO;
    uint64_t param = 0;
    TriggerKind trigger = TriggerKind::Always;
    uint64_t n = 1;
    double p = 0.0;
    std::mt19937_64 rng;
};

struct SiteState
{
    uint64_t hits = 0;
    uint64_t fired = 0;
    bool armed = false;
    ArmedPoint point;
};

/**
 * All arming/eval state behind one mutex. The unarmed fast path never
 * takes it (one relaxed load of gArmedSites); once a spec is armed the
 * run is a fault drill, not a benchmark, so slow-path cost is fine —
 * and the lock makes hit counting exact across worker threads.
 */
std::mutex gMu;
std::atomic<uint32_t> gArmedSites{0};
SiteState gState[kSiteCount];

uint32_t
siteIndex(const std::string &name)
{
    static const std::unordered_map<std::string, uint32_t> byName = [] {
        std::unordered_map<std::string, uint32_t> m;
        for (uint32_t i = 0; i < kSiteCount; ++i)
            m.emplace(kSites[i].name, i);
        return m;
    }();
    auto it = byName.find(name);
    return it == byName.end() ? UINT32_MAX : it->second;
}

bool
parseErrno(const std::string &tok, int *out)
{
    static const std::unordered_map<std::string, int> names = {
        {"EIO", EIO},       {"ENOSPC", ENOSPC}, {"EACCES", EACCES},
        {"ENOENT", ENOENT}, {"EINTR", EINTR},   {"EBADF", EBADF},
        {"EPERM", EPERM},   {"EROFS", EROFS},   {"EMFILE", EMFILE},
    };
    auto it = names.find(tok);
    if (it != names.end()) {
        *out = it->second;
        return true;
    }
    char *end = nullptr;
    long v = std::strtol(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || v <= 0 || v > 4096)
        return false;
    *out = int(v);
    return true;
}

bool
parseU64(const std::string &tok, uint64_t *out)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** Parse one `NAME=ACTION[:ARG][@N|,k=v...]` token into *slot. */
bool
parsePoint(const std::string &tok, uint32_t *siteOut, ArmedPoint *slot,
           std::string *err)
{
    auto bad = [&](const std::string &why) {
        if (err)
            *err = "failpoint spec \"" + tok + "\": " + why;
        return false;
    };

    size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
        return bad("expected NAME=ACTION");
    std::string name = tok.substr(0, eq);
    *siteOut = siteIndex(name);
    if (*siteOut == UINT32_MAX)
        return bad("unknown failpoint \"" + name +
                   "\" (see `mica faults ls`)");

    // ACTION[:ARG] runs up to the first '@' or ',' (trigger part).
    std::string rest = tok.substr(eq + 1);
    size_t trig = rest.find_first_of("@,");
    std::string actionArg = rest.substr(0, trig);
    std::string trigger =
        trig == std::string::npos ? "" : rest.substr(trig);

    size_t colon = actionArg.find(':');
    std::string action = actionArg.substr(0, colon);
    std::string arg =
        colon == std::string::npos ? "" : actionArg.substr(colon + 1);

    ArmedPoint pt;
    if (action == "error") {
        pt.op = FailOp::Error;
        if (!arg.empty() && !parseErrno(arg, &pt.err))
            return bad("bad errno \"" + arg + "\"");
    } else if (action == "shortwrite") {
        pt.op = FailOp::ShortWrite;
        pt.err = ENOSPC;
        pt.param = UINT64_MAX;    // "half the buffer" sentinel
        if (!arg.empty() && !parseU64(arg, &pt.param))
            return bad("bad byte count \"" + arg + "\"");
    } else if (action == "throw") {
        pt.op = FailOp::Throw;
    } else if (action == "delay") {
        pt.op = FailOp::Delay;
        pt.param = 10;
        if (!arg.empty() && !parseU64(arg, &pt.param))
            return bad("bad delay \"" + arg + "\"");
    } else if (action == "abort") {
        pt.op = FailOp::Abort;
    } else if (action == "off") {
        pt.op = FailOp::None;
    } else {
        return bad("unknown action \"" + action + "\"");
    }

    // Trigger: "@N" or ",key=value" pairs.
    uint64_t seed = 1;
    bool haveSeed = false;
    if (!trigger.empty() && trigger[0] == '@') {
        pt.trigger = TriggerKind::Once;
        if (!parseU64(trigger.substr(1), &pt.n) || pt.n == 0)
            return bad("bad @N trigger \"" + trigger + "\"");
    } else if (!trigger.empty()) {
        std::string s = trigger;
        while (!s.empty()) {
            if (s[0] != ',')
                return bad("bad trigger near \"" + s + "\"");
            s.erase(0, 1);
            size_t next = s.find(',');
            std::string kv = s.substr(0, next);
            s = next == std::string::npos ? "" : s.substr(next);
            size_t kveq = kv.find('=');
            if (kveq == std::string::npos)
                return bad("bad trigger token \"" + kv + "\"");
            std::string k = kv.substr(0, kveq);
            std::string v = kv.substr(kveq + 1);
            if (k == "every") {
                pt.trigger = TriggerKind::Every;
                if (!parseU64(v, &pt.n) || pt.n == 0)
                    return bad("bad every=N \"" + v + "\"");
            } else if (k == "p") {
                pt.trigger = TriggerKind::Prob;
                char *end = nullptr;
                pt.p = std::strtod(v.c_str(), &end);
                if (end == v.c_str() || *end != '\0' || pt.p < 0.0 ||
                    pt.p > 1.0)
                    return bad("bad p=P \"" + v + "\" (want [0,1])");
            } else if (k == "seed") {
                haveSeed = true;
                if (!parseU64(v, &seed))
                    return bad("bad seed \"" + v + "\"");
            } else {
                return bad("unknown trigger key \"" + k + "\"");
            }
        }
        if (haveSeed && pt.trigger != TriggerKind::Prob)
            return bad("seed= only applies with p=");
    }
    pt.rng.seed(seed);

    *slot = std::move(pt);
    return true;
}

} // namespace

bool
armFailpoints(const std::string &spec, std::string *err)
{
    // Parse the whole spec before touching live state, so a bad spec
    // never leaves a half-armed configuration behind.
    std::vector<std::pair<uint32_t, ArmedPoint>> parsed;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t semi = spec.find(';', pos);
        std::string tok = spec.substr(
            pos, semi == std::string::npos ? std::string::npos
                                          : semi - pos);
        pos = semi == std::string::npos ? spec.size() : semi + 1;
        if (tok.empty())
            continue;
        uint32_t site = 0;
        ArmedPoint pt;
        if (!parsePoint(tok, &site, &pt, err))
            return false;
        parsed.emplace_back(site, std::move(pt));
    }

    std::lock_guard<std::mutex> lk(gMu);
    for (auto &st : gState)
        st = SiteState{};
    uint32_t armed = 0;
    for (auto &[site, pt] : parsed) {
        // Later tokens override earlier ones (lets a caller mask a
        // point from an inherited env spec with `name=off`).
        if (gState[site].armed)
            --armed;
        gState[site].armed = pt.op != FailOp::None;
        gState[site].point = std::move(pt);
        if (gState[site].armed)
            ++armed;
    }
    gArmedSites.store(armed, std::memory_order_release);
    return true;
}

void
disarmFailpoints()
{
    std::lock_guard<std::mutex> lk(gMu);
    for (auto &st : gState)
        st = SiteState{};
    gArmedSites.store(0, std::memory_order_release);
}

bool
failpointsArmed()
{
    return gArmedSites.load(std::memory_order_acquire) != 0;
}

uint64_t
failpointFireCount(const std::string &name)
{
    uint32_t site = siteIndex(name);
    if (site == UINT32_MAX)
        return 0;
    std::lock_guard<std::mutex> lk(gMu);
    return gState[site].fired;
}

const std::vector<FailpointInfo> &
knownFailpoints()
{
    static const std::vector<FailpointInfo> infos = [] {
        std::vector<FailpointInfo> v;
        v.reserve(kSiteCount);
        for (const auto &s : kSites)
            v.push_back({s.name, s.writeSite});
        return v;
    }();
    return infos;
}

namespace
{

FailDecision
evalSite(uint32_t site) noexcept
{
    if (gArmedSites.load(std::memory_order_relaxed) == 0)
        return {};

    std::lock_guard<std::mutex> lk(gMu);
    SiteState &st = gState[site];
    if (!st.armed)
        return {};
    ++st.hits;

    ArmedPoint &pt = st.point;
    bool fire = false;
    switch (pt.trigger) {
      case TriggerKind::Always:
        fire = true;
        break;
      case TriggerKind::Once:
        fire = st.hits == pt.n;
        break;
      case TriggerKind::Every:
        fire = st.hits % pt.n == 0;
        break;
      case TriggerKind::Prob: {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        fire = dist(pt.rng) < pt.p;
        break;
      }
    }
    if (!fire)
        return {};

    ++st.fired;
    static obs::Counter fired("failpoint.fired");
    fired.add(1);
    return {pt.op, pt.err, pt.param, kSites[site].name};
}

} // namespace

Failpoint::Failpoint(const std::string &name) : site_(siteIndex(name))
{
    if (site_ == UINT32_MAX)
        throw std::logic_error(
            "failpoint site \"" + name +
            "\" is not in the registry (src/util/failpoint.cc)");
}

FailDecision
Failpoint::eval() noexcept
{
    return evalSite(site_);
}

FailDecision
evalFailpoint(const std::string &name) noexcept
{
    if (gArmedSites.load(std::memory_order_relaxed) == 0)
        return {};
    const uint32_t site = siteIndex(name);
    return site == UINT32_MAX ? FailDecision{} : evalSite(site);
}

} // namespace mica::util

#endif // MICA_FAILPOINTS
