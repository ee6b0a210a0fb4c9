/**
 * @file
 * Figure 11: the Figure 9 study repeated on the 8-processor CMP.
 *
 * Expected shape (paper Section 5.3): same trends as the NUMA, but
 * the differences between buffering schemes shrink — lower memory
 * latencies mean less memory stall, so laziness gains only ~9% on the
 * simpler schemes and ~3% on MultiT&MV, while multiple tasks&versions
 * still gains ~23%.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "sim/study.hpp"

using namespace tlsim;

int
main(int argc, char **argv)
{
    unsigned threads = bench::parseThreads(argc, argv);
    fault::FaultSpec faults = bench::parseFaults(argc, argv);
    // Full sweeps emit millions of records; default to the audit
    // categories (no NoC firehose) and size the rings accordingly.
    bench::TraceSession trace_session(argc, argv, trace::kMaskAudit,
                                      std::size_t(1) << 24);
    mem::MachineParams machine = mem::MachineParams::cmp8();
    machine.coreModel = bench::parseCoreModel(argc, argv);
    std::vector<tls::SchemeConfig> schemes = {
        {tls::Separation::SingleT, tls::Merging::EagerAMM, false},
        {tls::Separation::SingleT, tls::Merging::LazyAMM, false},
        {tls::Separation::MultiTSV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTSV, tls::Merging::LazyAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::LazyAMM, false},
    };

    std::vector<sim::AppStudy> studies =
        sim::runStudySweep(apps::appSuite(), schemes, machine, 3, threads,
                           faults);

    std::fputs(sim::renderFigure(
                   "Figure 11 — task-state separation x eager/lazy AMM "
                   "(CMP, 8 processors)",
                   studies)
                   .c_str(),
               stdout);

    sim::FigureAverages avg = sim::figureAverages(studies);
    std::printf("\nHeadline comparisons (paper: Section 5.3):\n");
    std::printf("  MultiT&MV Eager vs SingleT Eager : %4.0f%% faster "
                "(paper ~23%%)\n",
                100.0 * (1.0 - avg.normTime[4]));
    std::printf("  Laziness on SingleT/MultiT&SV    : %4.0f%% / %.0f%% "
                "faster (paper ~9%%)\n",
                100.0 * (1.0 - avg.normTime[1] / avg.normTime[0]),
                100.0 * (1.0 - avg.normTime[3] / avg.normTime[2]));
    std::printf("  Laziness on MultiT&MV            : %4.0f%% faster "
                "(paper ~3%%)\n",
                100.0 * (1.0 - avg.normTime[5] / avg.normTime[4]));
    return 0;
}
