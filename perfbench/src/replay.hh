/**
 * @file
 * Per-layer replays for the traced run.
 *
 * Each replay times one layer's public function in isolation on the
 * workload's own inputs (calibrated op streams, their address and
 * branch streams, the tail stage's arrival and service draws).  They
 * are ESTIMATES of in-situ cost: in isolation the layer's tables and
 * the host caches are warmer than inside a full dyad or queue run.
 * Each replay reports the median of three repetitions.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/distributions.hh"
#include "workload/catalog.hh"

namespace perfbench
{

using LayerMetrics = std::map<std::string, double>;

/**
 * Dyad-side replays: processOp on an OoO master lane, the lender-style
 * 8-lane HSMT unit over the calibrated batch pool, Cache/Tlb access on
 * the workload's address stream, predictAndUpdate on its branches,
 * fillOpsInto with its calibrated parameters, and tryReserveAt on the
 * replayed lane's issue times.  @p with_fillers adds the batch
 * streams to the master-core address stream (designs that run filler
 * threads on the master core).
 */
LayerMetrics
replayDyadLayers(const std::vector<duplexity::MicroserviceKind> &services,
                 bool with_fillers, std::uint64_t seed,
                 std::uint64_t parent_span);

/** One queue run's inputs, as the tail workloads build them. */
struct QueueInputs
{
    duplexity::DistributionPtr interarrival;
    duplexity::DistributionPtr service;
};

/**
 * Tail-side replays: interarrival and empirical-service draws,
 * SampleStats::add, and — for k > 1 — QuantileSketch::add and
 * ServerSchedule::assign at @p servers.
 */
LayerMetrics replayTailLayers(const std::vector<QueueInputs> &runs,
                              std::uint32_t servers, std::uint64_t seed,
                              std::uint64_t parent_span);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
