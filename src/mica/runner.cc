#include "mica/runner.hh"

#include <memory>

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

/** Drive the engine through the path the config selects. */
uint64_t
runEngine(AnalysisEngine &engine, TraceSource &src,
          const MicaRunnerConfig &cfg)
{
    if (cfg.engineBatch == 0)
        return engine.runPerRecord(src, cfg.maxInsts);
    engine.setBatchSize(cfg.engineBatch);
    return engine.run(src, cfg.maxInsts);
}

} // namespace

MicaProfile
collectMicaProfile(TraceSource &src, const std::string &name,
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
    engine.add(&mix);
    engine.add(&ilp);
    engine.add(&rt);
    engine.add(&ws);
    engine.add(&st);
    engine.add(&ppm);
    for (TraceAnalyzer *a : extra)
        engine.add(a);

    MicaProfile p;
    p.name = name;
    p.instCount = runEngine(engine, src, cfg);
    fillMix(p, mix);
    fillIlp(p, ilp);
    fillRegTraffic(p, rt);
    fillWorkingSet(p, ws);
    fillStrides(p, st);
    fillPpm(p, ppm);
    return p;
}

MicaProfile
collectMicaProfileSubset(TraceSource &src, const std::string &name,
                         const std::vector<size_t> &selected,
                         const MicaRunnerConfig &cfg)
{
    bool needMix = false, needIlp = false, needRt = false;
    bool needWs = false, needSt = false, needPpm = false;
    for (size_t s : selected) {
        if (s <= PctFpOps)
            needMix = true;
        else if (s <= Ilp256)
            needIlp = true;
        else if (s <= RegDepLe64)
            needRt = true;
        else if (s <= IWorkSet4K)
            needWs = true;
        else if (s <= GlobalStoreStrideLe4096)
            needSt = true;
        else
            needPpm = true;
    }

    InstMixAnalyzer mix;
    IlpAnalyzer ilp;
    RegTrafficAnalyzer rt;
    WorkingSetAnalyzer ws;
    StrideAnalyzer st;
    PpmBranchAnalyzer ppm(cfg.ppmMaxOrder);

    AnalysisEngine engine;
    if (needMix)
        engine.add(&mix);
    if (needIlp)
        engine.add(&ilp);
    if (needRt)
        engine.add(&rt);
    if (needWs)
        engine.add(&ws);
    if (needSt)
        engine.add(&st);
    if (needPpm)
        engine.add(&ppm);

    MicaProfile p;
    p.name = name;
    p.instCount = runEngine(engine, src, cfg);
    if (needMix)
        fillMix(p, mix);
    if (needIlp)
        fillIlp(p, ilp);
    if (needRt)
        fillRegTraffic(p, rt);
    if (needWs)
        fillWorkingSet(p, ws);
    if (needSt)
        fillStrides(p, st);
    if (needPpm)
        fillPpm(p, ppm);
    return p;
}

} // namespace mica
