/**
 * @file
 * Figure 10: architectural (AMM) vs future (FMM) main memory on the
 * CC-NUMA — MultiT&MV Eager/Lazy AMM vs FMM vs FMM.Sw, plus the
 * Lazy.L2 data point for P3m (4 MB, 16-way L2).
 *
 * Expected shape (paper Section 5.2): Lazy AMM and FMM are generally
 * similar; FMM wins where buffer pressure hurts AMM (P3m) and the
 * enlarged L2 recovers the gap; Lazy AMM wins where squashes are
 * frequent (Euler); FMM.Sw costs a few percent over FMM.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
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
    mem::MachineParams machine = mem::MachineParams::numa16();
    machine.coreModel = bench::parseCoreModel(argc, argv);
    std::vector<tls::SchemeConfig> schemes = {
        {tls::Separation::MultiTMV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::LazyAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::FMM, false},
        {tls::Separation::MultiTMV, tls::Merging::FMM, true},
    };

    std::vector<sim::AppStudy> studies =
        sim::runStudySweep(apps::appSuite(), schemes, machine, 3, threads,
                           faults);

    std::fputs(sim::renderFigure(
                   "Figure 10 — architectural vs future main memory "
                   "(MultiT&MV, CC-NUMA)",
                   studies)
                   .c_str(),
               stdout);

    // Lazy.L2: P3m with a 4 MB 16-way L2 under Lazy AMM (same seed
    // replication protocol, normalized to the regular-L2 Eager bar).
    mem::MachineParams big_l2 = machine;
    big_l2.l2 = mem::CacheGeometry::of(4 * 1024 * 1024, 16);
    sim::AppStudy lazy_l2_study = sim::runAppStudy(
        apps::p3m(),
        {{tls::Separation::MultiTMV, tls::Merging::LazyAMM, false}},
        big_l2, 3, threads, faults);
    const sim::AppStudy &p3m_study = studies[0];
    double norm = lazy_l2_study.outcomes[0].meanExecTime /
                  p3m_study.outcomes[0].meanExecTime;
    std::printf("\nLazy.L2 (P3m, 4MB/16-way L2): norm.time %.3f vs "
                "Lazy %.3f, FMM %.3f  -- the larger L2 removes AMM's "
                "buffer pressure\n",
                norm, p3m_study.normalized(1), p3m_study.normalized(2));

    // Headline shape checks.
    auto norm_of = [&](std::size_t app, std::size_t scheme) {
        return studies[app].normalized(scheme);
    };
    std::printf("\nShape checks (paper Section 5.2):\n");
    std::printf("  P3m: FMM %.3f vs Lazy %.3f  (FMM should win: "
                "buffer pressure)\n",
                norm_of(0, 2), norm_of(0, 1));
    std::printf("  Euler: Lazy %.3f vs FMM %.3f  (Lazy should win: "
                "frequent squashes, slow FMM recovery)\n",
                norm_of(6, 1), norm_of(6, 2));
    double sw_over_fmm = 0;
    for (std::size_t a = 0; a < studies.size(); ++a)
        sw_over_fmm += norm_of(a, 3) / norm_of(a, 2);
    std::printf("  FMM.Sw / FMM average: %.3f (paper: ~1.06)\n",
                sw_over_fmm / double(studies.size()));
    return 0;
}
