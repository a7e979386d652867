/**
 * @file
 * The benchmark's four workloads and the unit of work each one runs.
 *
 * A workload is a fixed batch of independent units — dyad scenario
 * cells (runScenario, seeded exactly as runGrid seeds them) or
 * tail-stage queue runs (runQueueSim) — pushed through W sweep
 * workers as a closed loop: a worker takes the next unit as soon as
 * it finishes one.  One pass over the batch is a round; a run repeats
 * rounds on identical inputs until its time budget is spent.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hh"
#include "queueing/queue_sim.hh"

namespace perfbench
{

/** Input sets per workload: a run's inputs derive from
 *  seed mod kInputSets, and the reference holds a digest for every
 *  unit of every set. */
constexpr std::uint64_t kInputSets = 16;

/** Samples in each tail-stage service population.  Fig 5(d)/(e)'s
 *  queuedP99Us feeds makeEmpirical with the service_us samples of one
 *  1.5M-measured-cycle cell and skips cells with fewer than 16.  On the
 *  full 105-cell Fig-5 grid (base seed 42) the 78 cells it keeps hold
 *  16-134 samples, median 37; the populations here have that median
 *  size at every scale. */
constexpr std::size_t kTailPopulation = 37;

/** Work sizes.  "full" is what the benchmark measures; "smoke" is a
 *  seconds-scale version of the same workloads for the self-tests. */
struct Scale
{
    duplexity::Cycle warmup_cycles = 400'000;
    duplexity::Cycle measure_cycles = 1'500'000;
    std::uint64_t tail_batch_size = 50'000;

    static Scale byName(const std::string &name);
};

/** Queue-run settings a test may override to force non-convergence. */
struct TailLimits
{
    std::uint64_t max_batches = 60;
    double relative_error = 0.05;
};

struct UnitResult
{
    std::string name;
    std::string digest;
    /** Host seconds of the timed library call. */
    double seconds = 0.0;
    /** Empty on success, else why the unit counts as failed. */
    std::string failure;

    // Dyad cells.
    std::string design;
    std::uint64_t requests = 0;
    std::uint64_t master_ops = 0;
    std::uint64_t filler_ops = 0;
    std::uint64_t lender_ops = 0;
    std::uint64_t filler_swaps = 0;
    duplexity::ActivityCounters activity;

    // Queue runs.
    std::uint64_t completed = 0;
    std::uint64_t idle_fast_forwards = 0;
    bool converged = false;
};

struct RoundResult
{
    double wall_s = 0.0;
    bool traced = false;
    std::vector<UnitResult> units;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build a workload by name; nullptr for an unknown name. */
    static std::unique_ptr<Workload>
    make(const std::string &name, std::uint64_t seed, const Scale &scale,
         const TailLimits &limits);

    std::uint64_t baseSeed() const { return base_seed_; }

    /** Everything users pay before the first unit: calibration for
     *  dyad workloads, populations and distributions for tail ones.
     *  Returns host seconds. */
    virtual double setup(unsigned workers) = 0;

    /** One pass over the first @p count units of the batch on
     *  @p workers sweep workers. */
    virtual RoundResult runRound(unsigned workers, std::size_t count) = 0;

    /** Traced-run replays of single layers on this workload's own
     *  inputs (replay.hh); metric name -> value. */
    virtual std::map<std::string, double> layerReplays() = 0;

    /** Number of units in one round. */
    virtual std::size_t units() const = 0;

  protected:
    Workload(std::string name, std::uint64_t seed);

    std::string name_;
    std::uint64_t base_seed_;
};

/** Metric-safe design name ("SMT+" -> "SmtPlus"). */
std::string designKey(duplexity::DesignKind kind);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
