#include "program/ifconvert.hh"

#include <algorithm>

#include "common/sat_counter.hh"
#include "program/emulator.hh"

namespace pp
{
namespace program
{

std::vector<double>
profileConditionHardness(const AsmProgram &prog, const IfConvertOptions &opts)
{
    const Program binary = prog.assemble(1 << 20, "profile");
    Emulator emu(binary, opts.profileSeed);

    const std::size_t ncond = binary.conditions().size();
    std::vector<SatCounter> bimodal(ncond, SatCounter(2, 1));
    std::vector<std::uint64_t> evals(ncond, 0);
    std::vector<std::uint64_t> misses(ncond, 0);

    // produce() emits whole basic blocks, so a batch can end past the
    // requested count. Every record of a batch is profiled until
    // profileSteps is reached; only the overshoot of the last batch is
    // dropped with the ring.
    constexpr std::uint64_t kBatchRecords = 4096;
    ExecRing ring;
    for (std::uint64_t left = opts.profileSteps; left > 0;) {
        emu.produce(ring, std::min(kBatchRecords, left));
        const std::uint64_t take =
            std::min<std::uint64_t>(ring.size(), left);
        for (std::uint64_t k = 0; k < take; ++k) {
            const ExecRecord &rec = ring.at(k);
            if (!rec.ins->isCompare() || !rec.qpVal)
                continue;
            const CondId id = rec.ins->condId;
            ++evals[id];
            if (bimodal[id].taken() != rec.condVal)
                ++misses[id];
            if (rec.condVal)
                bimodal[id].increment();
            else
                bimodal[id].decrement();
        }
        left -= take;
        ring.clear();
    }

    std::vector<double> rates(ncond, 0.0);
    for (std::size_t c = 0; c < ncond; ++c) {
        if (evals[c] >= opts.minEvals)
            rates[c] = static_cast<double>(misses[c]) /
                static_cast<double>(evals[c]);
    }
    return rates;
}

AsmProgram
ifConvert(const AsmProgram &prog, const IfConvertOptions &opts,
          IfConvertStats *stats)
{
    const std::vector<double> hardness =
        profileConditionHardness(prog, opts);

    const std::size_t n = prog.items().size();
    std::vector<bool> keep(n, true);
    std::vector<RegIndex> qp_override(n, invalidReg);

    IfConvertStats local;
    local.regionsTotal = prog.regions().size();

    for (const Region &r : prog.regions()) {
        const int block_len = static_cast<int>(
            (r.thenEnd - r.thenBegin) +
            (r.kind == Region::Kind::Diamond ? (r.elseEnd - r.elseBegin)
                                             : 0));
        RegionDecision dec;
        dec.condId = r.condId;
        dec.hardness = hardness[r.condId];
        dec.blockLen = block_len;
        dec.brIdx = r.brIdx;
        local.decisions.push_back(dec);
        if (hardness[r.condId] < opts.mispredThreshold)
            continue;
        if (block_len > opts.maxBlockLen)
            continue;
        local.decisions.back().converted = true;

        // Remove the region branch; guard the blocks.
        keep[r.brIdx] = false;
        ++local.branchesRemoved;
        for (std::size_t i = r.thenBegin; i < r.thenEnd; ++i) {
            qp_override[i] = r.pTrue;
            ++local.instsPredicated;
        }
        if (r.kind == Region::Kind::Diamond) {
            keep[r.joinBrIdx] = false;
            ++local.branchesRemoved;
            for (std::size_t i = r.elseBegin; i < r.elseEnd; ++i) {
                qp_override[i] = r.pFalse;
                ++local.instsPredicated;
            }
        }
        ++local.regionsConverted;
    }

    if (stats)
        *stats = local;
    return prog.rewrite(keep, qp_override);
}

} // namespace program
} // namespace pp
