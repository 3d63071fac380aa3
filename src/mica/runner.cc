#include "mica/runner.hh"

#include "mica/ilp.hh"
#include "mica/inst_mix.hh"
#include "mica/ppm.hh"
#include "mica/reg_traffic.hh"
#include "mica/strides.hh"
#include "mica/working_set.hh"
#include "obs/obs.hh"
#include "trace/engine.hh"

namespace mica
{

namespace
{

/** Copy instruction-mix results into a profile. */
void
fillMix(MicaProfile &p, const InstMixAnalyzer &mix)
{
    p[PctLoads] = mix.pctLoads();
    p[PctStores] = mix.pctStores();
    p[PctControl] = mix.pctControl();
    p[PctArith] = mix.pctArith();
    p[PctIntMul] = mix.pctIntMul();
    p[PctFpOps] = mix.pctFpOps();
}

void
fillIlp(MicaProfile &p, const IlpAnalyzer &ilp)
{
    p[Ilp32] = ilp.ipc(0);
    p[Ilp64] = ilp.ipc(1);
    p[Ilp128] = ilp.ipc(2);
    p[Ilp256] = ilp.ipc(3);
}

void
fillRegTraffic(MicaProfile &p, const RegTrafficAnalyzer &rt)
{
    p[AvgInputOperands] = rt.avgInputOperands();
    p[AvgDegreeOfUse] = rt.avgDegreeOfUse();
    for (size_t c = 0; c < RegTrafficAnalyzer::kDistCuts.size(); ++c)
        p[RegDepEq1 + c] = rt.depDistanceCum(c);
}

void
fillWorkingSet(MicaProfile &p, const WorkingSetAnalyzer &ws)
{
    p[DWorkSet32B] = static_cast<double>(ws.dBlocks());
    p[DWorkSet4K] = static_cast<double>(ws.dPages());
    p[IWorkSet32B] = static_cast<double>(ws.iBlocks());
    p[IWorkSet4K] = static_cast<double>(ws.iPages());
}

void
fillStrides(MicaProfile &p, const StrideAnalyzer &st)
{
    for (size_t c = 0; c < StrideAnalyzer::kCuts.size(); ++c) {
        p[LocalLoadStrideEq0 + c] = st.localLoad().prob(c);
        p[GlobalLoadStrideEq0 + c] = st.globalLoad().prob(c);
        p[LocalStoreStrideEq0 + c] = st.localStore().prob(c);
        p[GlobalStoreStrideEq0 + c] = st.globalStore().prob(c);
    }
}

void
fillPpm(MicaProfile &p, const PpmBranchAnalyzer &ppm)
{
    p[PpmGAg] = ppm.missRateGAg();
    p[PpmPAg] = ppm.missRatePAg();
    p[PpmGAs] = ppm.missRateGAs();
    p[PpmPAs] = ppm.missRatePAs();
}

/** Which of the six analyzer families a collection runs. */
struct Families
{
    bool mix = true, ilp = true, rt = true, ws = true, st = true,
         ppm = true;
};

/**
 * The one collection body: run the needed families, plus @p extra,
 * over @p src in one engine pass and fill their entries; the others
 * stay 0.
 */
MicaProfile
collect(TraceSource &src, const std::string &name, const Families &need,
        const MicaRunnerConfig &cfg,
        const std::vector<TraceAnalyzer *> &extra)
{
    obs::ObsSpan sp("mica.collect");
    sp.arg("bench", name);
    InstMixAnalyzer mix;
    IlpAnalyzer ilp;
    RegTrafficAnalyzer rt;
    WorkingSetAnalyzer ws;
    StrideAnalyzer st;
    PpmBranchAnalyzer ppm(cfg.ppmMaxOrder);

    AnalysisEngine engine;
    if (need.mix)
        engine.add(&mix);
    if (need.ilp)
        engine.add(&ilp);
    if (need.rt)
        engine.add(&rt);
    if (need.ws)
        engine.add(&ws);
    if (need.st)
        engine.add(&st);
    if (need.ppm)
        engine.add(&ppm);
    for (TraceAnalyzer *a : extra)
        engine.add(a);

    MicaProfile p;
    p.name = name;
    p.instCount = engine.run(src, cfg.maxInsts);
    if (need.mix)
        fillMix(p, mix);
    if (need.ilp)
        fillIlp(p, ilp);
    if (need.rt)
        fillRegTraffic(p, rt);
    if (need.ws)
        fillWorkingSet(p, ws);
    if (need.st)
        fillStrides(p, st);
    if (need.ppm)
        fillPpm(p, ppm);
    return p;
}

} // namespace

MicaProfile
collectMicaProfile(TraceSource &src, const std::string &name,
                   const MicaRunnerConfig &cfg,
                   const std::vector<TraceAnalyzer *> &extra)
{
    return collect(src, name, Families{}, cfg, extra);
}

MicaProfile
collectMicaProfileSubset(TraceSource &src, const std::string &name,
                         const std::vector<size_t> &selected,
                         const MicaRunnerConfig &cfg)
{
    Families need{false, false, false, false, false, false};
    for (size_t s : selected) {
        if (s <= PctFpOps)
            need.mix = true;
        else if (s <= Ilp256)
            need.ilp = true;
        else if (s <= RegDepLe64)
            need.rt = true;
        else if (s <= IWorkSet4K)
            need.ws = true;
        else if (s <= GlobalStoreStrideLe4096)
            need.st = true;
        else
            need.ppm = true;
    }
    return collect(src, name, need, cfg, {});
}

} // namespace mica
