#include "experiments/perf_compare.hh"

#include "util/checked_io.hh"

namespace mica::experiments
{

const PerfFamily &
perfFamily(const std::string &name)
{
    for (const auto &f : kPerfFamilies) {
        if (name == f.name)
            return f;
    }
    return kPerfFamilies[0];
}

bool
perfLowerIsBetter(const std::string &path)
{
    const auto endsWith = [&](const std::string &suffix) {
        return path.size() >= suffix.size() &&
               path.compare(path.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
    };
    return endsWith("_ns") || endsWith("_us");
}

namespace
{

void
collectPerfMetrics(const service::JsonValue &node, const std::string &path,
                   PerfMetrics *out)
{
    if (!node.isObject())
        return;
    const service::JsonValue *p50 = node.find("p50");
    const service::JsonValue *n = node.find("n");
    if (p50 != nullptr && p50->isNumber() && n != nullptr &&
        n->isNumber()) {
        PerfMetric m;
        m.p50 = p50->asDouble();
        const service::JsonValue *mn = node.find("min");
        const service::JsonValue *mx = node.find("max");
        m.min = mn != nullptr && mn->isNumber() ? mn->asDouble() : m.p50;
        m.max = mx != nullptr && mx->isNumber() ? mx->asDouble() : m.p50;
        m.n = n->asCount(0);
        (*out)[path] = m;
        return;
    }
    for (const auto &kv : node.members())
        collectPerfMetrics(kv.second,
                           path.empty() ? kv.first
                                        : path + "." + kv.first,
                           out);
}

/** Judge one path; @p b and @p f are the base and new summaries. */
PerfFinding
judge(const std::string &path, const PerfMetric &b, const PerfMetric &f)
{
    PerfFinding out;
    out.metric = path;
    out.family = path.substr(0, path.find('.'));
    const bool lower = perfLowerIsBetter(path);
    out.best = b.n < 4 || f.n < 4;
    out.base = out.best ? (lower ? b.min : b.max) : b.p50;
    out.fresh = out.best ? (lower ? f.min : f.max) : f.p50;
    if (f.n == 0 || (out.fresh <= 0.0 && out.base > 0.0)) {
        out.drop = 1.0;
        out.status = PerfStatus::Regression;
        return out;
    }
    if (out.base <= 0.0)
        return out;
    out.drop = (lower ? out.fresh - out.base : out.base - out.fresh) /
        out.base;
    const PerfFamily &band = perfFamily(out.family);
    if (out.drop > band.fail)
        out.status = PerfStatus::Regression;
    else if (out.drop > band.noise)
        out.status = PerfStatus::Degraded;
    return out;
}

} // namespace

bool
parsePerfProfile(const std::string &text, PerfMetrics *out,
                 std::string *err)
{
    service::JsonValue doc;
    if (!service::parseJson(text, &doc, err) || !doc.isObject()) {
        if (err->empty())
            *err = "not a JSON object";
        return false;
    }
    const service::JsonValue *schema = doc.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->asString() != kPerfProfileSchema) {
        *err = std::string("schema is not ") + kPerfProfileSchema +
            " (regenerate with perf_analyzers --json=...)";
        return false;
    }
    const service::JsonValue *fams = doc.find("families");
    if (fams == nullptr || !fams->isObject()) {
        *err = "missing \"families\" object";
        return false;
    }
    collectPerfMetrics(*fams, "", out);
    if (out->empty()) {
        *err = "no {p50, ..., n} summaries under \"families\"";
        return false;
    }
    return true;
}

bool
loadPerfProfile(const std::string &path, PerfMetrics *out,
                std::string *err)
{
    return parsePerfProfile(util::readFileBytes(path, "perf.compare"), out,
                            err);
}

const char *
perfStatusName(PerfStatus s)
{
    switch (s) {
    case PerfStatus::Ok:
        return "ok";
    case PerfStatus::Degraded:
        return "degraded";
    case PerfStatus::Regression:
        break;
    }
    return "regression";
}

const PerfFinding *
PerfComparison::worst() const
{
    const PerfFinding *w = nullptr;
    for (const auto &f : findings) {
        if (f.drop > 0.0 && (w == nullptr || f.drop > w->drop))
            w = &f;
    }
    return w;
}

const char *
PerfComparison::verdict() const
{
    if (regressed > 0 || (!missing.empty() && !allowMissing))
        return "regression";
    return degraded > 0 ? "degraded" : "pass";
}

int
PerfComparison::exitCode() const
{
    if (regressed > 0 || (!missing.empty() && !allowMissing))
        return 1;
    return degraded > 0 ? 3 : 0;
}

PerfComparison
comparePerfProfiles(const PerfMetrics &base, const PerfMetrics &fresh,
                    bool allowMissing)
{
    PerfComparison out;
    out.allowMissing = allowMissing;
    for (const auto &[path, b] : base) {
        const auto it = fresh.find(path);
        if (it == fresh.end()) {
            out.missing.push_back(path);
            continue;
        }
        out.findings.push_back(judge(path, b, it->second));
        switch (out.findings.back().status) {
        case PerfStatus::Ok:
            ++out.ok;
            break;
        case PerfStatus::Degraded:
            ++out.degraded;
            break;
        case PerfStatus::Regression:
            ++out.regressed;
            break;
        }
    }
    return out;
}

service::JsonValue
perfVerdictJson(const PerfComparison &cmp, const std::string &basePath,
                const std::string &newPath)
{
    using service::JsonValue;
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::str(kPerfVerdictSchema));
    doc.set("base", JsonValue::str(basePath));
    doc.set("new", JsonValue::str(newPath));
    doc.set("verdict", JsonValue::str(cmp.verdict()));
    doc.set("exit_code", JsonValue::number(int64_t(cmp.exitCode())));
    doc.set("ok", JsonValue::number(int64_t(cmp.ok)));
    doc.set("degraded", JsonValue::number(int64_t(cmp.degraded)));
    doc.set("regressed", JsonValue::number(int64_t(cmp.regressed)));
    JsonValue miss = JsonValue::array();
    for (const auto &path : cmp.missing)
        miss.push(JsonValue::str(path));
    doc.set("missing", std::move(miss));
    JsonValue findings = JsonValue::array();
    for (const auto &f : cmp.findings) {
        JsonValue fo = JsonValue::object();
        fo.set("metric", JsonValue::str(f.metric));
        fo.set("family", JsonValue::str(f.family));
        fo.set("base", JsonValue::number(f.base));
        fo.set("new", JsonValue::number(f.fresh));
        fo.set("basis", JsonValue::str(f.best ? "best" : "p50"));
        fo.set("drop", JsonValue::number(f.drop));
        fo.set("status", JsonValue::str(perfStatusName(f.status)));
        findings.push(std::move(fo));
    }
    doc.set("findings", std::move(findings));
    return doc;
}

} // namespace mica::experiments
