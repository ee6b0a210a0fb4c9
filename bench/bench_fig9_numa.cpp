/**
 * @file
 * Figure 9: separation of task state under Eager/Lazy AMM on the
 * 16-node CC-NUMA — {SingleT, MultiT&SV, MultiT&MV} x {Eager, Lazy},
 * execution time normalized to SingleT Eager, Busy/Stall split, and
 * speedups over sequential execution.
 */

#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "sim/study.hpp"

using namespace tlsim;

int
main(int argc, char **argv)
{
    unsigned threads = bench::parseThreads(argc, argv);
    fault::FaultSpec faults = bench::parseFaults(argc, argv);
    // --app=NAME narrows the sweep to one application and --reps=N
    // overrides the replication count: a single-app single-rep run
    // keeps a core-mask trace (docs/TRACING.md) inside one ring.
    const char *only_app = nullptr;
    unsigned reps = 3;
    bool validate = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--app=", 6) == 0)
            only_app = argv[i] + 6;
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            reps = bench::parseCount("--reps", argv[i] + 7);
        else if (std::strcmp(argv[i], "--validate") == 0)
            validate = true;
    }
    // Full sweeps emit millions of records; default to the audit
    // categories (no NoC firehose) and size the rings accordingly.
    bench::TraceSession trace_session(argc, argv, trace::kMaskAudit,
                                      std::size_t(1) << 24);
    mem::MachineParams machine = mem::MachineParams::numa16();
    machine.coreModel = bench::parseCoreModel(argc, argv);
    std::vector<tls::SchemeConfig> schemes = {
        {tls::Separation::SingleT, tls::Merging::EagerAMM, false},
        {tls::Separation::SingleT, tls::Merging::LazyAMM, false},
        {tls::Separation::MultiTSV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTSV, tls::Merging::LazyAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::LazyAMM, false},
    };
    // --validate appends the Predict+Validate variant of every column
    // (DESIGN.md §10). The default six keep their positions, so the
    // headline indices below and the no-flag output are unchanged.
    if (validate) {
        std::size_t base = schemes.size();
        for (std::size_t i = 0; i < base; ++i)
            schemes.push_back(schemes[i].withValidation(
                tls::Validation::PredictValidate));
    }

    std::vector<apps::AppParams> suite = apps::appSuite();
    if (only_app != nullptr) {
        std::vector<apps::AppParams> picked;
        for (const apps::AppParams &app : suite)
            if (app.name == only_app)
                picked.push_back(app);
        if (picked.empty()) {
            std::fprintf(stderr, "unknown app '%s'\n", only_app);
            return 1;
        }
        suite = picked;
    }

    std::vector<sim::AppStudy> studies =
        sim::runStudySweep(suite, schemes, machine, reps, threads,
                           faults);

    std::fputs(sim::renderFigure(
                   "Figure 9 — task-state separation x eager/lazy AMM "
                   "(CC-NUMA, 16 processors)",
                   studies)
                   .c_str(),
               stdout);

    // Headline claims of Section 5.1/5.2.
    sim::FigureAverages avg = sim::figureAverages(studies);
    std::printf("\nHeadline comparisons (paper: Section 5.1-5.2):\n");
    std::printf("  MultiT&MV Eager vs SingleT Eager : %4.0f%% faster "
                "(paper ~32%%)\n",
                100.0 * (1.0 - avg.normTime[4]));
    std::printf("  Laziness on SingleT              : %4.0f%% faster "
                "(paper ~30%% for simpler schemes)\n",
                100.0 * (1.0 - avg.normTime[1] / avg.normTime[0]));
    std::printf("  Laziness on MultiT&SV            : %4.0f%% faster\n",
                100.0 * (1.0 - avg.normTime[3] / avg.normTime[2]));
    std::printf("  Laziness on MultiT&MV            : %4.0f%% faster "
                "(paper ~24%%)\n",
                100.0 * (1.0 - avg.normTime[5] / avg.normTime[4]));
    return 0;
}
