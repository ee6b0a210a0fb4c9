/**
 * @file
 * Table 3: application characteristics. Instructions per task and the
 * measured Commit/Execution ratio (computed, as in the paper, under
 * MultiT&MV Eager where tasks do not stall) for both machines, plus
 * the qualitative classification columns.
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
    tls::SchemeConfig mv_eager{tls::Separation::MultiTMV,
                               tls::Merging::EagerAMM, false};
    mem::MachineParams numa = mem::MachineParams::numa16();
    mem::MachineParams cmp = mem::MachineParams::cmp8();
    numa.coreModel = cmp.coreModel = bench::parseCoreModel(argc, argv);

    TextTable table({"Appl", "#Tasks", "KInstr/task (paper)",
                     "C/E% NUMA (paper)", "C/E% CMP (paper)",
                     "Squash/task", "Load Imbal", "Priv Pattern",
                     "C/E class"});

    // Both machine points of every app fan out together; the table is
    // rendered in suite order afterwards.
    std::vector<apps::AppParams> suite = apps::appSuite();
    std::vector<tls::RunResult> numa_runs(suite.size());
    std::vector<tls::RunResult> cmp_runs(suite.size());
    parallelFor(
        suite.size() * 2,
        [&](std::size_t i) {
            const apps::AppParams &app = suite[i / 2];
            if (i % 2 == 0)
                numa_runs[i / 2] =
                    sim::runScheme(app, mv_eager, numa, faults);
            else
                cmp_runs[i / 2] =
                    sim::runScheme(app, mv_eager, cmp, faults);
        },
        threads);

    for (std::size_t a = 0; a < suite.size(); ++a) {
        const apps::AppParams &app = suite[a];
        const tls::RunResult &numa_run = numa_runs[a];
        const tls::RunResult &cmp_run = cmp_runs[a];

        double measured_instr = 0;
        // Mean instructions follow directly from the generator.
        double sum = 0;
        apps::LoopWorkload wl(app);
        for (TaskId t = 1; t <= app.numTasks; ++t)
            sum += wl.sizeFactor(t);
        measured_instr = app.instrPerTask * sum / app.numTasks / 1000.0;

        char instr[64], ce_numa[64], ce_cmp[64], squash[32];
        std::snprintf(instr, sizeof(instr), "%.1f (%.1f)",
                      measured_instr, app.paperInstrPerTaskK);
        std::snprintf(ce_numa, sizeof(ce_numa), "%.1f (%.1f)",
                      100.0 * numa_run.commitExecRatio,
                      app.paperCommitExecNuma);
        std::snprintf(ce_cmp, sizeof(ce_cmp), "%.1f (%.1f)",
                      100.0 * cmp_run.commitExecRatio,
                      app.paperCommitExecCmp);
        std::snprintf(squash, sizeof(squash), "%.3f",
                      double(numa_run.squashEvents) /
                          double(numa_run.committedTasks));

        table.addRow({app.name, std::to_string(app.numTasks), instr,
                      ce_numa, ce_cmp, squash,
                      apps::levelName(app.loadImbalance),
                      apps::levelName(app.privPattern),
                      apps::levelName(app.commitExecClass)});
    }

    std::printf("Table 3 — application characteristics "
                "(measured, paper value in parentheses)\n\n%s\n",
                table.render().c_str());
    std::printf("Notes: task sizes are calibrated to reproduce the "
                "paper's C/E ratio classes and written footprints\n"
                "(Figure 1) on this simulator; see DESIGN.md section 3 "
                "for the scaling rationale.\n");
    return 0;
}
