/**
 * @file
 * dpx_perfbench: the host-cost benchmark's measurement process.
 *
 *   dpx_perfbench run   --workload W --seed N --seconds S --workers K
 *                       [--scale full|smoke] [--trace-out FILE]
 *                       [--rounds N] [--max-batches N]
 *                       [--relative-error X]
 *   dpx_perfbench setup --workload W --seed N --workers K [--reps R]
 *
 * `run` sets the workload up once, then repeats rounds (one pass over
 * the workload's batch of units on K sweep workers) until S seconds
 * are spent, and prints one JSON document with every round's per-unit
 * timings, digests and simulated counts.  With --trace-out, rounds
 * alternate untraced and traced, the per-layer replays run after the
 * rounds, and the recorded spans are written to FILE.  `setup` only
 * times set-up; perfbench/run.py runs it in fresh processes because
 * the calibration memo is process-global.
 *
 * Metrics are derived from this output by perfbench/run.py.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/calibration.hh"
#include "json.hh"
#include "sim/logging.hh"
#include "sim/simd.hh"
#include "sim/vmath.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned workers = 1;
    std::string scale = "full";
    std::string trace_out;
    unsigned reps = 1;
    /** Fixed round count (0 = rounds until the time budget ends). */
    unsigned rounds = 0;
    TailLimits limits;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "dpx_perfbench: %s\n", msg.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage("expected a command: run | setup");
    Options o;
    o.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = v;
            else if (flag == "--seed")
                o.seed = std::stoull(v);
            else if (flag == "--seconds")
                o.seconds = std::stod(v);
            else if (flag == "--workers")
                o.workers = static_cast<unsigned>(std::stoul(v));
            else if (flag == "--scale")
                o.scale = v;
            else if (flag == "--trace-out")
                o.trace_out = v;
            else if (flag == "--rounds")
                o.rounds = static_cast<unsigned>(std::stoul(v));
            else if (flag == "--reps")
                o.reps = static_cast<unsigned>(std::stoul(v));
            else if (flag == "--max-batches")
                o.limits.max_batches = std::stoull(v);
            else if (flag == "--relative-error")
                o.limits.relative_error = std::stod(v);
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (o.command != "run" && o.command != "setup")
        usage("unknown command " + o.command);
    if (o.workers == 0 || o.reps == 0 || !(o.seconds > 0.0))
        usage("--workers, --reps and --seconds must be positive");
    return o;
}

/** Check failures inside a unit become exceptions, so the unit is
 *  counted as failed instead of the process dying. */
void
throwOnFailure(const char *kind, const std::string &msg)
{
    throw std::runtime_error(std::string(kind) + ": " + msg);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
writeManifest(JsonWriter &j, const Options &o, const Workload &wl)
{
    j.key("manifest").beginObject();
    j.field("hardware_threads", std::thread::hardware_concurrency());
    j.field("cpu_model", cpuModel());
    j.field("compiler", PERFBENCH_COMPILER);
    j.field("build_type", PERFBENCH_BUILD_TYPE);
    j.field("simd_enabled", duplexity::simd::simdEnabled());
    j.field("vmath_enabled", duplexity::vmath::vmathEnabled());
    j.field("vmath_active", duplexity::vmath::vmathActive());
    j.field("workers", o.workers);
    j.field("seed", o.seed);
    j.field("input_set", o.seed % kInputSets);
    j.field("base_seed", wl.baseSeed());
    j.field("scale", o.scale);
    j.key("env").beginObject();
    for (const char *name :
         {"DPX_REPLICAS", "DPX_THREADS", "DPX_MEASURE_CYCLES"}) {
        j.key(name);
        if (const char *v = std::getenv(name))
            j.value(v);
        else
            j.null();
    }
    j.endObject();
    j.endObject();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
writeUnit(JsonWriter &j, const UnitResult &u)
{
    j.beginObject();
    j.field("name", u.name);
    j.field("digest", u.digest);
    j.field("seconds", u.seconds);
    j.field("failure", u.failure);
    if (!u.design.empty()) {
        j.field("design", u.design);
        j.field("requests", u.requests);
        j.field("master_ops", u.master_ops);
        j.field("filler_ops", u.filler_ops);
        j.field("lender_ops", u.lender_ops);
        j.field("filler_swaps", u.filler_swaps);
        j.field("l1_accesses", u.activity.l1_accesses);
        j.field("l0_accesses", u.activity.l0_accesses);
        j.field("llc_accesses", u.activity.llc_accesses);
        j.field("dram_accesses", u.activity.dram_accesses);
        j.field("link_traversals", u.activity.link_traversals);
    } else {
        j.field("completed", u.completed);
        j.field("idle_fast_forwards", u.idle_fast_forwards);
        j.field("converged", u.converged);
    }
    j.endObject();
}

void
writeMemo(JsonWriter &j, const char *key)
{
    const duplexity::CalibrationMemoStats s =
        duplexity::calibrationMemoStats();
    j.key(key).beginObject();
    j.field("probes", s.probes);
    j.field("wide_hits", s.wide_hits);
    j.endObject();
}

int
runSetup(const Options &o)
{
    JsonWriter j;
    j.beginObject();
    j.key("setup_s").beginArray();
    for (unsigned r = 0; r < o.reps; ++r) {
        auto wl = Workload::make(o.workload, o.seed, Scale::byName(o.scale),
                                 o.limits);
        j.value(wl->setup(o.workers));
        // The calibration memo is process-global: after the first
        // set-up a dyad workload's would be free, so only a fresh
        // process can time it again.
        if (o.workload.rfind("dyad_", 0) == 0)
            break;
    }
    j.endArray();
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}

int
runMeasure(const Options &o)
{
    auto wl =
        Workload::make(o.workload, o.seed, Scale::byName(o.scale), o.limits);
    const bool tracing = !o.trace_out.empty();
    Tracer &tracer = Tracer::instance();
    if (tracing)
        tracer.enable();

    JsonWriter j;
    j.beginObject();
    j.field("workload", o.workload);
    writeManifest(j, o, *wl);

    const double setup_s = wl->setup(o.workers);
    j.field("setup_s", setup_s);
    j.field("units_per_round", static_cast<std::uint64_t>(wl->units()));
    writeMemo(j, "memo_after_setup");

    // Round 0 runs one unit per worker to warm the host (allocator
    // arenas, page tables, code); it is checked but not timed.  Full
    // rounds follow until the budget is spent.  In a traced run odd
    // rounds are traced and even ones are not, so every traced run
    // measures its own tracing overhead and checks that traced and
    // untraced rounds produce the same digests.
    const std::size_t min_rounds = tracing ? 3 : 2;
    std::vector<RoundResult> rounds;
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        const bool traced = tracing && rounds.size() % 2 == 1;
        if (traced)
            tracer.enable();
        else
            tracer.disable();
        const std::size_t count = rounds.empty() && o.rounds == 0
                                      ? o.workers
                                      : wl->units();
        rounds.push_back(wl->runRound(o.workers, count));
        rounds.back().traced = traced;
        if (rounds.size() == 1)
            writeMemo(j, "memo_after_round0");
        if (o.rounds != 0) {
            if (rounds.size() >= o.rounds)
                break;
            continue;
        }
        const double elapsed = secondsSince(t0);
        const double last = rounds.back().wall_s;
        if (rounds.size() >= min_rounds && elapsed + last > o.seconds)
            break;
    }
    const double peak_rss = peakRssMb();
    writeMemo(j, "memo_after_rounds");
    j.field("peak_rss_mb", peak_rss);

    j.key("rounds").beginArray();
    for (const RoundResult &r : rounds) {
        j.beginObject();
        j.field("wall_s", r.wall_s);
        j.field("traced", r.traced);
        j.key("units").beginArray();
        for (const UnitResult &u : r.units)
            writeUnit(j, u);
        j.endArray();
        j.endObject();
    }
    j.endArray();

    if (tracing) {
        tracer.enable();
        const std::map<std::string, double> layers = wl->layerReplays();
        j.key("replays").beginObject();
        for (const auto &[name, value] : layers)
            j.field(name, value);
        j.endObject();
        j.key("span_totals").beginObject();
        for (const auto &[name, t] : tracer.totals()) {
            j.key(name).beginObject();
            j.field("count", t.count);
            j.field("total_s", t.total_s);
            j.field("self_s", t.self_s);
            j.endObject();
        }
        j.endObject();
        if (!tracer.writeChromeTrace(o.trace_out)) {
            std::fprintf(stderr, "dpx_perfbench: cannot write %s\n",
                         o.trace_out.c_str());
            return 1;
        }
        j.field("trace_file", o.trace_out);
    }
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    try {
        if (Workload::make(o.workload, o.seed, Scale::byName(o.scale),
                           o.limits) == nullptr)
            usage("unknown workload '" + o.workload + "'");
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }
    duplexity::setFailureHookForTest(&throwOnFailure);
    return o.command == "setup" ? runSetup(o) : runMeasure(o);
}
