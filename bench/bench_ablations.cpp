/**
 * @file
 * Ablation studies for the design choices DESIGN.md section 7 calls
 * out:
 *
 *   A. Overflow-area latency sensitivity (AMM's weak spot on P3m).
 *   B. L2 size/associativity sweep for P3m (extends Lazy.L2).
 *   C. Word- vs line-granularity violation detection (false-sharing
 *      squashes).
 *   D. Software-log instruction overhead sweep (FMM.Sw's cost).
 *   E. Eager-commit cost model sweep (fixed + per-line components).
 */

#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "sim/study.hpp"

using namespace tlsim;

namespace {

unsigned g_threads = 0;         // --threads; 0 = auto
fault::FaultSpec g_faults;      // --faults; inert by default

tls::SchemeConfig
mv(tls::Merging merge, bool sw = false)
{
    return {tls::Separation::MultiTMV, merge, sw};
}

double
meanExec(const apps::AppParams &app, const tls::SchemeConfig &scheme,
         const mem::MachineParams &machine, unsigned reps = 2)
{
    return sim::runAppStudy(app, {scheme}, machine, reps, g_threads,
                            g_faults)
        .outcomes[0]
        .meanExecTime;
}

} // namespace

int
main(int argc, char **argv)
{
    g_threads = bench::parseThreads(argc, argv);
    g_faults = bench::parseFaults(argc, argv);
    mem::MachineParams numa = mem::MachineParams::numa16();
    numa.coreModel = bench::parseCoreModel(argc, argv);

    // ---- A: overflow-area cost sweep (P3m, Lazy AMM) ----
    std::printf("Ablation A — overflow-area check cost (P3m, "
                "MultiT&MV Lazy AMM, NUMA)\n\n");
    {
        TextTable t({"overflowCheckCycles", "Exec time",
                     "vs FMM (no overflow area)"});
        double fmm = meanExec(apps::p3m(), mv(tls::Merging::FMM), numa);
        for (Cycle c : {0u, 35u, 70u, 140u}) {
            mem::MachineParams m = numa;
            m.overflowCheckCycles = c;
            double exec =
                meanExec(apps::p3m(), mv(tls::Merging::LazyAMM), m);
            t.addRow({std::to_string(c),
                      TextTable::fmt(exec / 1e6, 2) + " Mcyc",
                      TextTable::fmt(exec / fmm, 3)});
        }
        std::fputs(t.render().c_str(), stdout);
        std::printf("(the costlier the spill structure, the further "
                    "AMM falls behind FMM)\n\n");
    }

    // ---- B: L2 geometry sweep for P3m ----
    std::printf("Ablation B — L2 size/associativity vs buffer "
                "pressure (P3m, Lazy AMM)\n\n");
    {
        TextTable t({"L2", "Exec time", "Overflow spills"});
        struct Geo {
            const char *name;
            std::uint64_t size;
            unsigned assoc;
        } geos[] = {
            {"256KB/2-way", 256 * 1024, 2},
            {"512KB/4-way (paper)", 512 * 1024, 4},
            {"1MB/8-way", 1024 * 1024, 8},
            {"4MB/16-way (Lazy.L2)", 4 * 1024 * 1024, 16},
        };
        for (const Geo &g : geos) {
            mem::MachineParams m = numa;
            m.l2 = mem::CacheGeometry::of(g.size, g.assoc);
            sim::AppStudy study = sim::runAppStudy(
                apps::p3m(), {mv(tls::Merging::LazyAMM)}, m, 2,
                g_threads, g_faults);
            t.addRow({g.name,
                      TextTable::fmt(
                          study.outcomes[0].meanExecTime / 1e6, 2) +
                          " Mcyc",
                      std::to_string(study.outcomes[0]
                                         .result.counters.get(
                                             "overflow_spills"))});
        }
        std::fputs(t.render().c_str(), stdout);
        std::printf("\n");
    }

    // ---- C: violation-detection granularity ----
    std::printf("Ablation C — word- vs line-granularity violation "
                "detection (NUMA, MultiT&MV Lazy)\n\n");
    {
        TextTable t({"App", "Squash events (word)",
                     "Squash events (line)", "Exec word", "Exec line"});
        for (const apps::AppParams &app :
             {apps::track(), apps::dsmc3d(), apps::euler()}) {
            mem::MachineParams line_m = numa;
            line_m.wordGranularityDetection = false;
            sim::AppStudy word_s = sim::runAppStudy(
                app, {mv(tls::Merging::LazyAMM)}, numa, 2, g_threads,
                g_faults);
            sim::AppStudy line_s = sim::runAppStudy(
                app, {mv(tls::Merging::LazyAMM)}, line_m, 2, g_threads,
                g_faults);
            t.addRow({app.name,
                      TextTable::fmt(word_s.outcomes[0].meanSquashes, 1),
                      TextTable::fmt(line_s.outcomes[0].meanSquashes, 1),
                      TextTable::fmt(
                          word_s.outcomes[0].meanExecTime / 1e6, 2),
                      TextTable::fmt(
                          line_s.outcomes[0].meanExecTime / 1e6, 2)});
        }
        std::fputs(t.render().c_str(), stdout);
        std::printf("(line granularity adds false-sharing squashes; "
                    "the paper's protocol is word-granular)\n\n");
    }

    // ---- D: software-logging overhead sweep ----
    std::printf("Ablation D — FMM.Sw logging instructions per entry "
                "(Bdna, NUMA)\n\n");
    {
        TextTable t({"Instrs/entry", "FMM.Sw / FMM"});
        double fmm = meanExec(apps::bdna(), mv(tls::Merging::FMM), numa);
        for (unsigned n : {0u, 8u, 24u, 48u}) {
            mem::MachineParams m = numa;
            m.swLogInstrPerEntry = n;
            double sw = meanExec(apps::bdna(),
                                 mv(tls::Merging::FMM, true), m);
            t.addRow({std::to_string(n), TextTable::fmt(sw / fmm, 3)});
        }
        std::fputs(t.render().c_str(), stdout);
        std::printf("(the paper's software logging costs ~6%%; ours "
                    "is calibrated via this knob)\n\n");
    }

    // ---- E: eager-commit cost model ----
    std::printf("Ablation E — eager commit cost vs laziness benefit "
                "(Apsi, NUMA)\n\n");
    {
        TextTable t({"commitFixed", "issueGap", "Lazy gain over Eager"});
        for (Cycle fixed : {0u, 900u}) {
            for (Cycle gap : {2u, 8u, 16u}) {
                mem::MachineParams m = numa;
                m.commitFixedCycles = fixed;
                m.commitIssueGap = gap;
                double eager = meanExec(
                    apps::apsi(), mv(tls::Merging::EagerAMM), m);
                double lazy = meanExec(
                    apps::apsi(), mv(tls::Merging::LazyAMM), m);
                t.addRow({std::to_string(fixed), std::to_string(gap),
                          TextTable::fmt(100.0 * (1.0 - lazy / eager),
                                         1) +
                              "%"});
            }
        }
        std::fputs(t.render().c_str(), stdout);
        std::printf("(the commit wavefront's weight controls how much "
                    "lazy merging buys)\n");
    }
    return 0;
}
