#include "tls/scheme.hpp"

namespace tlsim::tls {

const char *
separationName(Separation s)
{
    switch (s) {
      case Separation::SingleT: return "SingleT";
      case Separation::MultiTSV: return "MultiT&SV";
      case Separation::MultiTMV: return "MultiT&MV";
    }
    return "?";
}

const char *
mergingName(Merging m)
{
    switch (m) {
      case Merging::EagerAMM: return "Eager AMM";
      case Merging::LazyAMM: return "Lazy AMM";
      case Merging::FMM: return "FMM";
    }
    return "?";
}

unsigned
SupportSet::count() const
{
    unsigned n = 0;
    for (std::uint8_t b = bits_; b; b &= b - 1)
        ++n;
    return n;
}

std::string
SupportSet::toString() const
{
    if (bits_ == 0)
        return "none";
    std::string out;
    auto add = [&](Support s, const char *name) {
        if (has(s)) {
            if (!out.empty())
                out += "+";
            out += name;
        }
    };
    add(kCTID, "CTID");
    add(kCRL, "CRL");
    add(kMTID, "MTID");
    add(kVCL, "VCL");
    add(kULOG, "ULOG");
    add(kVPRED, "VPRED");
    return out;
}

const char *
supportDescription(Support s)
{
    switch (s) {
      case kCTID:
        return "Storage and checking logic for a task-ID field in each "
               "cache line";
      case kCRL:
        return "Advanced logic in the cache to service external requests "
               "for versions";
      case kMTID:
        return "Task ID for each speculative variable in memory and "
               "needed comparison logic";
      case kVCL:
        return "Logic for combining/invalidating committed versions";
      case kULOG:
        return "Logic and storage to support logging";
      case kVPRED:
        return "Value-prediction table plus per-task validation-log "
               "buffer and compare logic";
    }
    return "?";
}

const std::vector<Support> &
allSupports()
{
    static const std::vector<Support> kAll = {kCTID, kCRL, kMTID, kVCL,
                                              kULOG, kVPRED};
    return kAll;
}

std::string
SchemeConfig::name() const
{
    std::string out = separationName(separation);
    out += " ";
    if (merging == Merging::FMM)
        out += softwareLog ? "FMM.Sw" : "FMM";
    else
        out += mergingName(merging);
    // The paper baseline stays bit-for-bit unchanged: only the new
    // validation policy appends a suffix.
    if (validation == Validation::PredictValidate)
        out += " +VP";
    return out;
}

SupportSet
SchemeConfig::requiredSupports() const
{
    // Section 3.3 / Table 2. The VCL-vs-MTID alternative for laziness
    // is resolved as the paper's Table 2 does: Lazy AMM lists
    // "CTID and (VCL or MTID)"; we report VCL (the less complex one,
    // per Section 3.3.5), and FMM uses MTID.
    SupportSet s;
    if (separation != Separation::SingleT || merging != Merging::EagerAMM)
        s = s.with(kCTID);
    if (separation == Separation::MultiTMV)
        s = s.with(kCRL);
    if (merging == Merging::LazyAMM)
        s = s.with(kVCL);
    if (merging == Merging::FMM) {
        // FMM needs CTID even under SingleT (Section 3.3.4).
        s = s.with(kCTID).with(kMTID);
        if (!softwareLog)
            s = s.with(kULOG);
    }
    if (validation == Validation::PredictValidate)
        s = s.with(kVPRED);
    return s;
}

double
bufferingCostKb(const SchemeConfig &scheme, const BufferSizing &sizing)
{
    SupportSet s = scheme.requiredSupports();
    double bits = 0.0;

    // Per-line tag storage: a task-ID field on every L2 line (CTID)
    // and on every MTID-covered memory line. Tag width grows with the
    // in-flight task window the machine is sized for.
    if (s.has(kCTID))
        bits += double(sizing.l2LinesPerProc) * sizing.numProcs *
                sizing.taskIdBits;
    if (s.has(kMTID))
        bits += double(sizing.mtidLines) * sizing.taskIdBits;

    // Logic-dominated supports: charged as a flat per-processor
    // equivalent (comparators, combining network) of one cache line
    // each — small next to the tag arrays, but nonzero so that e.g.
    // Lazy is dearer than Eager at equal separation.
    const double kLogicBits = 64.0 * 8.0;
    if (s.has(kCRL))
        bits += kLogicBits * sizing.numProcs;
    if (s.has(kVCL))
        bits += kLogicBits * sizing.numProcs;

    // ULOG: the MHB itself lives in cacheable main memory (the paper's
    // point — capacity is free, latency is the cost), so the dedicated
    // hardware is the per-processor log *write buffer* plus its
    // sequencing logic. Each buffered entry keeps the displaced line
    // plus the producer and overwriting task IDs. FMM.Sw keeps even
    // that in plain memory (cost is instructions, not hardware), which
    // the supports set already reflects by dropping kULOG.
    if (s.has(kULOG)) {
        double entry_bits = 64.0 * 8.0 + 2.0 * sizing.taskIdBits;
        bits += double(sizing.undoBufferEntries) * sizing.numProcs *
                entry_bits;
    }

    // VPRED: a per-processor value-predictor table (64-bit last value
    // + word tag + 2-bit confidence per entry) plus the validation-log
    // write buffer (word address + predicted value per entry). The log
    // body spills to cacheable memory like the MHB, so only the buffer
    // is dedicated hardware.
    if (s.has(kVPRED)) {
        double table_bits = 64.0 + 64.0 + 2.0;
        double vlog_bits = 64.0 + 64.0;
        bits += double(sizing.predictorEntries) * sizing.numProcs *
                table_bits;
        bits += double(sizing.validationBufferEntries) *
                sizing.numProcs * vlog_bits;
    }

    return bits / 8.0 / 1024.0;
}

std::vector<SchemeConfig>
SchemeConfig::evaluatedSchemes()
{
    return {
        make(Separation::SingleT, Merging::EagerAMM),
        make(Separation::SingleT, Merging::LazyAMM),
        make(Separation::MultiTSV, Merging::EagerAMM),
        make(Separation::MultiTSV, Merging::LazyAMM),
        make(Separation::MultiTMV, Merging::EagerAMM),
        make(Separation::MultiTMV, Merging::LazyAMM),
        make(Separation::MultiTMV, Merging::FMM),
        make(Separation::MultiTMV, Merging::FMM, true),
    };
}

const std::vector<PublishedScheme> &
publishedSchemes()
{
    // Figure 4 of the paper.
    static const std::vector<PublishedScheme> kAtlas = {
        {"Multiscalar (hierarchical ARB)", Separation::SingleT,
         Merging::EagerAMM, false, false},
        {"Superthreaded", Separation::SingleT, Merging::EagerAMM, false,
         false},
        {"MDT", Separation::SingleT, Merging::EagerAMM, false, false},
        {"Marcuello99", Separation::SingleT, Merging::EagerAMM, false,
         false},
        {"Multiscalar (SVC)", Separation::SingleT, Merging::LazyAMM,
         false, false},
        {"DDSM", Separation::SingleT, Merging::EagerAMM, true, false},
        {"Steffan97&00 (SV design)", Separation::MultiTSV,
         Merging::EagerAMM, false, false},
        {"Hydra", Separation::MultiTMV, Merging::EagerAMM, false, false},
        {"Steffan97&00", Separation::MultiTMV, Merging::EagerAMM, false,
         false},
        {"Cintra00", Separation::MultiTMV, Merging::EagerAMM, false,
         false},
        {"Prvulovic01", Separation::MultiTMV, Merging::LazyAMM, false,
         false},
        {"Zhang99&T", Separation::MultiTMV, Merging::FMM, false, false},
        {"Garzaran01", Separation::MultiTMV, Merging::FMM, false, false},
        {"LRPD (coarse recovery)", Separation::SingleT, Merging::FMM,
         false, true},
        {"SUDS (coarse recovery)", Separation::SingleT, Merging::FMM,
         false, true},
    };
    return kAtlas;
}

} // namespace tlsim::tls
