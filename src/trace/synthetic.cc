#include "trace/synthetic.hh"

namespace mica
{

size_t
RandomTraceSource::nextSpan(const InstRecord *&span, InstRecord *buf,
                            size_t n)
{
    span = buf;
    size_t got = 0;
    while (got < n && genNext(buf[got]))
        ++got;
    return got;
}

bool
RandomTraceSource::genNext(InstRecord &rec)
{
    if (emitted_ >= params_.numInsts)
        return false;
    ++emitted_;

    rec = InstRecord{};
    rec.pc = pc_;

    const double u = rndUnit();
    double acc = params_.pLoad;

    auto pick_src = [this]() -> uint16_t {
        // Bias sources toward recently written registers so dependence
        // distances are short but nonzero.
        uint16_t r = 1 + static_cast<uint16_t>(rnd() % 8);
        uint16_t cand = (lastDst_ + 32 - r) % 31 + 1;
        return cand;
    };

    if (u < acc) {
        rec.cls = InstClass::Load;
        rec.numSrcRegs = 1;
        rec.srcRegs[0] = pick_src();
        rec.dstReg = 1 + static_cast<uint16_t>(rnd() % 31);
        rec.memAddr = kDataBase + (rnd() % params_.dataFootprint);
        rec.memSize = 8;
        lastDst_ = rec.dstReg;
    } else if (u < (acc += params_.pStore)) {
        rec.cls = InstClass::Store;
        rec.numSrcRegs = 2;
        rec.srcRegs[0] = pick_src();
        rec.srcRegs[1] = pick_src();
        rec.memAddr = kDataBase + (rnd() % params_.dataFootprint);
        rec.memSize = 8;
    } else if (u < (acc += params_.pBranch)) {
        rec.cls = InstClass::Branch;
        rec.numSrcRegs = 2;
        rec.srcRegs[0] = pick_src();
        rec.srcRegs[1] = pick_src();
        rec.taken = rndUnit() < params_.pTaken;
        rec.target = kCodeBase + (rnd() % params_.codeFootprint & ~3ull);
    } else if (u < (acc += params_.pFp)) {
        rec.cls = InstClass::FpAlu;
        rec.numSrcRegs = 2;
        rec.srcRegs[0] = 32 + static_cast<uint16_t>(rnd() % 31) + 1;
        rec.srcRegs[1] = 32 + static_cast<uint16_t>(rnd() % 31) + 1;
        rec.dstReg = 32 + static_cast<uint16_t>(rnd() % 31) + 1;
    } else if (u < (acc += params_.pIntMul)) {
        rec.cls = InstClass::IntMul;
        rec.numSrcRegs = 2;
        rec.srcRegs[0] = pick_src();
        rec.srcRegs[1] = pick_src();
        rec.dstReg = 1 + static_cast<uint16_t>(rnd() % 31);
        lastDst_ = rec.dstReg;
    } else {
        rec.cls = InstClass::IntAlu;
        rec.numSrcRegs = 2;
        rec.srcRegs[0] = pick_src();
        rec.srcRegs[1] = pick_src();
        rec.dstReg = 1 + static_cast<uint16_t>(rnd() % 31);
        lastDst_ = rec.dstReg;
    }

    // Advance the program counter; taken transfers jump.
    if (rec.isControl() && rec.taken)
        pc_ = rec.target;
    else
        pc_ = kCodeBase + ((pc_ - kCodeBase + 4) % params_.codeFootprint);
    return true;
}

} // namespace mica
