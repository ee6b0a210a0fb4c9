/**
 * @file
 * Figure 1-(a): application behavior under thread-level speculation on
 * the 16-processor scalable machine — average speculative tasks in the
 * system and per processor, written footprint per task and the share
 * of it caused by mostly-privatization access patterns.
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
    // As in the paper, measured under a scheme where tasks do not
    // stall (MultiT&MV) on the CC-NUMA.
    tls::SchemeConfig scheme{tls::Separation::MultiTMV,
                             tls::Merging::EagerAMM, false};
    mem::MachineParams numa = mem::MachineParams::numa16();
    numa.coreModel = bench::parseCoreModel(argc, argv);

    TextTable table({"Appl", "#Spec tasks in system",
                     "#Spec tasks per proc", "Written/task KB (paper)",
                     "Priv % (paper)"});

    // Simulate every app in parallel, then render rows in suite order.
    std::vector<apps::AppParams> suite = apps::appSuite();
    std::vector<tls::RunResult> runs(suite.size());
    parallelFor(
        suite.size(),
        [&](std::size_t i) {
            runs[i] = sim::runScheme(suite[i], scheme, numa, faults);
        },
        threads);

    for (std::size_t i = 0; i < suite.size(); ++i) {
        const apps::AppParams &app = suite[i];
        const tls::RunResult &run = runs[i];
        char written[64], priv[64];
        std::snprintf(written, sizeof(written), "%.1f (%.1f)",
                      run.avgWrittenKb, app.paperWrittenKb);
        std::snprintf(priv, sizeof(priv), "%.1f (%.1f)",
                      100.0 * run.privFraction, app.paperPrivPct);
        table.addRow({app.name, TextTable::fmt(run.avgSpecTasksSystem, 1),
                      TextTable::fmt(run.avgSpecTasksPerProc, 1), written,
                      priv});
    }

    std::printf("Figure 1-(a) — application behavior on the 16-proc "
                "CC-NUMA (measured, paper value in parentheses)\n\n%s\n",
                table.render().c_str());
    std::printf(
        "The paper's P3m runs many more tasks per invocation than the "
        "scaled-down simulation, so its\n\"in system\" count (800 in "
        "the paper) scales with the task count; the qualitative "
        "contrast --\nP3m buffering an order of magnitude more "
        "speculative tasks than every other application --\nis what "
        "Figure 1 establishes and what the reproduction preserves.\n");
    return 0;
}
