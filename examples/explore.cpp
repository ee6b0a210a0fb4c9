/**
 * @file
 * Command-line explorer: run any (application, scheme, machine) point
 * with parameter overrides and print the full report — the same tool
 * the benchmarks are built from, exposed for interactive use.
 *
 * Usage:
 *   explore [--app NAME] [--sep singlet|sv|mv] [--merge eager|lazy|fmm|fmmsw]
 *           [--machine numa|cmp] [--tasks N] [--seed S] [--reps R]
 *           [--threads T] [--l2kb KB] [--l2assoc W] [--no-overflow]
 *           [--line-detect] [--list]
 *
 * Examples:
 *   explore --app Euler --merge fmm
 *   explore --app P3m --merge lazy --l2kb 4096 --l2assoc 16   # Lazy.L2
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/study.hpp"

using namespace tlsim;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--app NAME] [--sep singlet|sv|mv] "
                 "[--merge eager|lazy|fmm|fmmsw] [--machine numa|cmp]\n"
                 "          [--tasks N] [--seed S] [--reps R] "
                 "[--threads T] [--l2kb KB] [--l2assoc W] "
                 "[--no-overflow] [--line-detect] [--list]\n",
                 argv0);
    std::exit(1);
}

/** Value of a count flag (--reps, --threads): a whole number >= 1,
 *  saturated at UINT_MAX. */
unsigned
parseCount(const char *flag, const char *value)
{
    char *end = nullptr;
    long v = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || v < 1) {
        std::fprintf(stderr, "%s wants a count >= 1, got '%s'\n", flag,
                     value);
        std::exit(1);
    }
    return v > long(UINT_MAX) ? UINT_MAX : unsigned(v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app_name = "Apsi";
    tls::Separation sep = tls::Separation::MultiTMV;
    tls::Merging merge = tls::Merging::LazyAMM;
    bool sw_log = false;
    bool numa = true;
    unsigned tasks = 0, reps = 1, threads = 0;
    std::uint64_t seed = 0;
    std::uint64_t l2kb = 0;
    unsigned l2assoc = 0;
    bool no_overflow = false, line_detect = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--app") {
            app_name = next();
        } else if (arg == "--sep") {
            std::string v = next();
            sep = v == "singlet" ? tls::Separation::SingleT
                  : v == "sv"    ? tls::Separation::MultiTSV
                  : v == "mv"    ? tls::Separation::MultiTMV
                                 : (usage(argv[0]), sep);
        } else if (arg == "--merge") {
            std::string v = next();
            sw_log = v == "fmmsw";
            merge = v == "eager"  ? tls::Merging::EagerAMM
                    : v == "lazy" ? tls::Merging::LazyAMM
                    : (v == "fmm" || v == "fmmsw")
                        ? tls::Merging::FMM
                        : (usage(argv[0]), merge);
        } else if (arg == "--machine") {
            numa = std::string(next()) == "numa";
        } else if (arg == "--tasks") {
            tasks = unsigned(std::atoi(next()));
        } else if (arg == "--seed") {
            seed = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--reps") {
            reps = parseCount("--reps", next());
        } else if (arg == "--threads") {
            threads = parseCount("--threads", next());
        } else if (arg == "--l2kb") {
            l2kb = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--l2assoc") {
            l2assoc = unsigned(std::atoi(next()));
        } else if (arg == "--no-overflow") {
            no_overflow = true;
        } else if (arg == "--line-detect") {
            line_detect = true;
        } else if (arg == "--list") {
            std::printf("applications:\n");
            for (const apps::AppParams &p : apps::appSuite())
                std::printf("  %-8s %u tasks, %.0fk instr, %.1f KB "
                            "written, %.1f%% priv\n",
                            p.name.c_str(), p.numTasks,
                            p.instrPerTask / 1000.0, p.writtenKb,
                            100 * p.privFraction);
            std::printf("schemes:\n");
            for (const tls::SchemeConfig &s :
                 tls::SchemeConfig::evaluatedSchemes())
                std::printf("  %-22s supports %s\n", s.name().c_str(),
                            s.requiredSupports().toString().c_str());
            return 0;
        } else {
            usage(argv[0]);
        }
    }

    apps::AppParams app;
    bool found = false;
    for (const apps::AppParams &p : apps::appSuite()) {
        if (p.name == app_name) {
            app = p;
            found = true;
        }
    }
    if (!found) {
        std::fprintf(stderr, "unknown app '%s' (try --list)\n",
                     app_name.c_str());
        return 1;
    }
    if (tasks)
        app.numTasks = tasks;
    if (seed)
        app.seed = seed;

    mem::MachineParams machine = numa ? mem::MachineParams::numa16()
                                      : mem::MachineParams::cmp8();
    if (l2kb)
        machine.l2 = mem::CacheGeometry::of(l2kb * 1024,
                                            l2assoc ? l2assoc
                                                    : machine.l2.assoc);
    if (no_overflow)
        machine.overflowArea = false;
    if (line_detect)
        machine.wordGranularityDetection = false;

    tls::SchemeConfig scheme{sep, merge, sw_log};
    sim::AppStudy study =
        sim::runAppStudy(app, {scheme}, machine, reps, threads);
    const sim::SchemeOutcome &out = study.outcomes[0];
    const tls::RunResult &r = out.result;

    std::printf("%s / %s / %s  (%u tasks, %u replication%s)\n",
                app.name.c_str(), scheme.name().c_str(),
                machine.name.c_str(), app.numTasks, reps,
                reps == 1 ? "" : "s");
    std::printf("  exec %.0f cycles   sequential %llu   speedup %.2f\n",
                out.meanExecTime,
                (unsigned long long)study.seqTime, out.speedup);
    std::printf("  squash events %.1f   tasks squashed %llu   "
                "spec tasks/proc %.1f\n",
                out.meanSquashes,
                (unsigned long long)r.tasksSquashed,
                r.avgSpecTasksPerProc);
    std::printf("  written/task %.2f KB (%.1f%% priv)   C/E %.2f%%\n",
                r.avgWrittenKb, 100 * r.privFraction,
                100 * r.commitExecRatio);
    std::printf("  machine cycles by kind:\n");
    for (std::size_t k = 0; k < kNumCycleKinds; ++k) {
        Cycle c = r.total.get(CycleKind(k));
        if (c)
            std::printf("    %-14s %11llu  (%4.1f%%)\n",
                        cycleKindName(CycleKind(k)),
                        (unsigned long long)c,
                        100.0 * double(c) / double(r.total.total()));
    }
    std::printf("  counters:\n");
    for (const auto &[name, value] : r.counters.entries())
        std::printf("    %-26s %llu\n", name.c_str(),
                    (unsigned long long)value);
    return 0;
}
