#include "workloads.hh"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>

#include "core/calibration.hh"
#include "core/grid.hh"
#include "digest.hh"
#include "replay.hh"
#include "sim/distributions.hh"
#include "sim/parallel_sweep.hh"
#include "sim/rng.hh"
#include "trace.hh"

namespace perfbench
{

using namespace duplexity;

Scale
Scale::byName(const std::string &name)
{
    Scale s;
    if (name == "smoke") {
        s.warmup_cycles = 50'000;
        s.measure_cycles = 150'000;
        s.tail_batch_size = 20'000;
    } else if (name != "full") {
        throw std::invalid_argument("unknown scale '" + name + "'");
    }
    return s;
}

std::string
designKey(DesignKind kind)
{
    switch (kind) {
      case DesignKind::Baseline: return "Baseline";
      case DesignKind::Smt: return "Smt";
      case DesignKind::SmtPlus: return "SmtPlus";
      case DesignKind::MorphCore: return "MorphCore";
      case DesignKind::MorphCorePlus: return "MorphCorePlus";
      case DesignKind::DuplexityRepl: return "DuplexityRepl";
      case DesignKind::Duplexity: return "Duplexity";
    }
    return "Unknown";
}

Workload::Workload(std::string name, std::uint64_t seed)
    : name_(std::move(name)),
      base_seed_(deriveCellSeed(0x70657266ull, {seed % kInputSets}))
{
}

namespace
{

/** Dyad cells and tail_mg1 runs use two loads: one where queues mostly
 *  drain between arrivals and one where they mostly do not. */
const std::vector<double> kLoads{0.3, 0.7};

/** tail_ggk adds a deep-idle load: at k = 8 the idle fast-forward
 *  (eight drained arrivals in a row) seats ~24 % of requests at 2 %
 *  load and practically none at 30 % or 70 %. */
const std::vector<double> kGgkLoads{0.02, 0.3, 0.7};

SweepOptions
sweepOptions(unsigned workers, const char *label)
{
    SweepOptions options;
    options.threads = workers;
    options.label = label;
    return options;
}

/* ---------------- dyad workloads ---------------- */

class DyadWorkload : public Workload
{
  public:
    DyadWorkload(std::string name, std::uint64_t seed, const Scale &scale,
                 std::vector<MicroserviceKind> services,
                 std::vector<DesignKind> designs, bool with_fillers)
        : Workload(std::move(name), seed), scale_(scale),
          services_(std::move(services)), with_fillers_(with_fillers)
    {
        // Services-major, loads, designs-minor: runGrid's cell order.
        for (MicroserviceKind service : services_)
            for (double load : kLoads)
                for (DesignKind design : designs)
                    cells_.push_back({service, load, design});
    }

    double
    setup(unsigned workers) override
    {
        // The calibration probes every cell reaches (capacity probe,
        // phase IPCs, batch IPCs), warmed in parallel as runGrid's
        // pre-warm pass does.
        Span span("core.calibration");
        const Clock::time_point t0 = Clock::now();
        parallelSweep(
            services_.size(),
            [&](std::size_t i) { baselineServiceUs(services_[i]); },
            sweepOptions(workers, "perfbench-calibration"));
        for (BatchKind kind : {BatchKind::PageRank, BatchKind::Sssp})
            aloneBatchIpc(kind);
        return secondsSince(t0);
    }

    RoundResult
    runRound(unsigned workers, std::size_t count) override
    {
        RoundResult round;
        round.units.resize(std::min(count, cells_.size()));
        const Clock::time_point t0 = Clock::now();
        {
            Span span("round", 0, name_);
            parallelSweep(
                round.units.size(),
                [&](std::size_t i) {
                    const Cell &c = cells_[i];
                    UnitResult &u = round.units[i];
                    u.name = std::string(toString(c.service)) + "/" +
                             std::to_string(c.load).substr(0, 3) + "/" +
                             designKey(c.design);
                    u.design = designKey(c.design);
                    ScenarioConfig cfg;
                    cfg.design = c.design;
                    cfg.service = c.service;
                    cfg.load = c.load;
                    cfg.warmup_cycles = scale_.warmup_cycles;
                    cfg.measure_cycles = scale_.measure_cycles;
                    cfg.seed = gridCellSeed(base_seed_, c.service, c.load,
                                            c.design);
                    try {
                        std::optional<ScenarioResult> r;
                        {
                            Span cell("core.cell", span.id(), u.name);
                            const Clock::time_point ts = Clock::now();
                            r = runScenario(cfg);
                            u.seconds = secondsSince(ts);
                        }
                        u.digest = digestOf(*r);
                        u.requests = r->requests;
                        u.master_ops = r->master_ops;
                        u.filler_ops = r->filler_ops;
                        u.lender_ops = r->lender_ops;
                        u.filler_swaps = r->filler_swaps;
                        u.activity = r->activity;
                    } catch (const std::exception &e) {
                        u.failure = std::string("exception: ") + e.what();
                    }
                },
                sweepOptions(workers, "perfbench-cells"));
        }
        round.wall_s = secondsSince(t0);
        return round;
    }

    std::map<std::string, double>
    layerReplays() override
    {
        Span span("replay");
        return replayDyadLayers(services_, with_fillers_, base_seed_,
                                span.id());
    }

    std::size_t units() const override { return cells_.size(); }

  private:
    struct Cell
    {
        MicroserviceKind service;
        double load;
        DesignKind design;
    };

    Scale scale_;
    std::vector<MicroserviceKind> services_;
    bool with_fillers_;
    std::vector<Cell> cells_;
};

/* ---------------- tail workloads ---------------- */

/** Service-time shapes (µs) of the populations the tail stage runs:
 *  the five catalog microservices' compute plus µs-scale stall, and a
 *  heavy-tailed mix whose p99 needs more batches to settle. */
struct Family
{
    const char *name;
    DistributionPtr (*make)();
};

const std::vector<Family> &
families()
{
    static const std::vector<Family> list{
        {"flann-ll",
         [] {
             return makeSum(makeLogNormal(1.0, 0.25),
                            makeExponential(1.0));
         }},
        {"flann-ha",
         [] {
             return makeSum(makeLogNormal(10.0, 0.1),
                            makeExponential(1.0));
         }},
        {"rsc",
         [] {
             return makeSum(makeSum(makeLogNormal(3.0, 0.2),
                                    makeExponential(8.0)),
                            makeLogNormal(4.0, 0.1));
         }},
        {"mcrouter",
         [] {
             return makeSum(makeLogNormal(3.0, 0.2),
                            makeUniform(3.0, 5.0));
         }},
        {"wordstem", [] { return makeLogNormal(4.0, 0.3); }},
        {"bursty",
         [] {
             return makeSum(makeLogNormal(2.0, 0.3),
                            makeBoundedPareto(0.5, 50.0, 1.8));
         }},
    };
    return list;
}

class TailWorkload : public Workload
{
  public:
    TailWorkload(std::string name, std::uint64_t seed, const Scale &scale,
                 const TailLimits &limits, std::uint32_t servers,
                 std::uint32_t replicas, const std::vector<double> &loads)
        : Workload(std::move(name), seed), scale_(scale), limits_(limits),
          servers_(servers), replicas_(replicas), loads_(loads)
    {
    }

    double
    setup(unsigned) override
    {
        Span span("queueing.build_inputs");
        const Clock::time_point t0 = Clock::now();
        runs_.clear();
        const std::vector<Family> &fams = families();
        for (std::size_t f = 0; f < fams.size(); ++f) {
            DistributionPtr shape = fams[f].make();
            Rng rng = Rng(base_seed_).fork(f + 1);
            std::vector<double> population(kTailPopulation);
            for (double &x : population)
                x = shape->sample(rng);
            // queuedP99Us's construction: µs samples -> seconds.
            DistributionPtr service =
                makeScaled(makeEmpirical(std::move(population)), 1e-6);
            for (double load : loads_) {
                QueueSimConfig cfg;
                cfg.interarrival = makeExponential(
                    service->mean() / (load * servers_));
                cfg.service = service;
                cfg.servers = servers_;
                cfg.replicas = replicas_;
                cfg.batch_size = scale_.tail_batch_size;
                cfg.max_batches = limits_.max_batches;
                cfg.relative_error = limits_.relative_error;
                cfg.seed = deriveCellSeed(
                    base_seed_, {f, coordKey(load), servers_});
                runs_.push_back({std::string(fams[f].name) + "/" +
                                     std::to_string(load).substr(0, 4),
                                 cfg});
            }
        }
        return secondsSince(t0);
    }

    RoundResult
    runRound(unsigned workers, std::size_t count) override
    {
        RoundResult round;
        round.units.resize(std::min(count, runs_.size()));
        const Clock::time_point t0 = Clock::now();
        {
            Span span("round", 0, name_);
            parallelSweep(
                round.units.size(),
                [&](std::size_t i) {
                    UnitResult &u = round.units[i];
                    u.name = runs_[i].name;
                    try {
                        std::optional<QueueSimResult> r;
                        {
                            Span run("queueing.run", span.id(), u.name);
                            const Clock::time_point ts = Clock::now();
                            r = runQueueSim(runs_[i].config);
                            u.seconds = secondsSince(ts);
                        }
                        // Digested in the worker, so a round holds at
                        // most W results (~3 % of a run's time).
                        u.digest = digestOf(*r);
                        u.completed = r->completed;
                        u.idle_fast_forwards = r->idle_fast_forwards;
                        u.converged = r->converged;
                        if (!r->converged)
                            u.failure = "not converged within max_batches";
                    } catch (const std::exception &e) {
                        u.failure = std::string("exception: ") + e.what();
                    }
                },
                sweepOptions(workers, "perfbench-queue-runs"));
        }
        round.wall_s = secondsSince(t0);
        return round;
    }

    std::map<std::string, double>
    layerReplays() override
    {
        Span span("replay");
        std::vector<QueueInputs> inputs;
        for (const Run &run : runs_)
            inputs.push_back({run.config.interarrival, run.config.service});
        return replayTailLayers(inputs, servers_, base_seed_, span.id());
    }

    std::size_t units() const override { return runs_.size(); }

  private:
    struct Run
    {
        std::string name;
        QueueSimConfig config;
    };

    Scale scale_;
    TailLimits limits_;
    std::uint32_t servers_;
    std::uint32_t replicas_;
    std::vector<double> loads_;
    std::vector<Run> runs_;
};

} // namespace

std::unique_ptr<Workload>
Workload::make(const std::string &name, std::uint64_t seed,
               const Scale &scale, const TailLimits &limits)
{
    using MK = MicroserviceKind;
    using DK = DesignKind;
    if (name == "dyad_morph") {
        return std::make_unique<DyadWorkload>(
            name, seed, scale,
            std::vector<MK>{MK::FlannLL, MK::McRouter, MK::Rsc},
            std::vector<DK>{DK::MorphCore, DK::MorphCorePlus,
                            DK::DuplexityRepl, DK::Duplexity},
            true);
    }
    if (name == "dyad_nomorph") {
        return std::make_unique<DyadWorkload>(
            name, seed, scale,
            std::vector<MK>{MK::WordStem, MK::FlannHA},
            std::vector<DK>{DK::Baseline, DK::Smt, DK::SmtPlus}, false);
    }
    if (name == "tail_mg1")
        return std::make_unique<TailWorkload>(name, seed, scale, limits,
                                              1, 1, kLoads);
    if (name == "tail_ggk")
        return std::make_unique<TailWorkload>(name, seed, scale, limits,
                                              8, 4, kGgkLoads);
    return nullptr;
}

} // namespace perfbench
