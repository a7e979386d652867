#include "replay.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>

#include "branch/predictor.hh"
#include "core/calibration.hh"
#include "cpu/core_engine.hh"
#include "cpu/hsmt.hh"
#include "cpu/virtual_context.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/tlb.hh"
#include "queueing/queue_sim.hh"
#include "sim/rng.hh"
#include "sim/slot_calendar.hh"
#include "sim/stats.hh"
#include "trace.hh"
#include "workload/microservice.hh"
#include "workload/op_block.hh"

namespace perfbench
{

using namespace duplexity;

namespace
{

/** Median of three repetitions of @p rep (each returns ns/op). */
template <class F>
double
medianOf3(F &&rep)
{
    std::array<double, 3> v{rep(), rep(), rep()};
    std::sort(v.begin(), v.end());
    return v[1];
}

double
nsPer(Clock::time_point t0, std::uint64_t n)
{
    return n == 0 ? 0.0 : 1e9 * secondsSince(t0) / static_cast<double>(n);
}

/** Keeps a checksum observable so timed loops are not elided. */
void
sink(std::uint64_t acc)
{
    if (acc == 0x5eedfacecafebeefull)
        std::fputs("", stderr);
}

/** One calibrated op stream of the workload (a master request
 *  stream or a batch thread), pre-drawn so replays time only the
 *  layer under test. */
struct Stream
{
    WorkloadParams character;
    std::vector<MicroOp> ops;
};

std::vector<MicroOp>
drawOps(InstrSource &source, std::size_t n)
{
    std::vector<MicroOp> ops;
    ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        ops.push_back(source.next());
    return ops;
}

constexpr std::size_t kStreamOps = 120'000;

std::vector<Stream>
buildStreams(const std::vector<MicroserviceKind> &services,
             bool with_fillers, std::uint64_t seed,
             std::size_t &master_streams)
{
    std::vector<Stream> streams;
    Rng rng(seed);
    std::uint64_t stream_id = 1;
    for (MicroserviceKind kind : services) {
        MicroserviceSpec spec = calibratedMicroservice(kind);
        MicroserviceSource source(spec, rng.fork(stream_id++));
        streams.push_back({spec.character, drawOps(source, kStreamOps)});
    }
    master_streams = streams.size();
    if (with_fillers) {
        ThreadId uid = 1;
        for (BatchKind kind : {BatchKind::PageRank, BatchKind::Sssp}) {
            BatchSpec spec = calibratedBatch(kind, uid++);
            BatchSource source(spec, rng.fork(stream_id++));
            streams.push_back(
                {spec.character, drawOps(source, kStreamOps)});
        }
    }
    return streams;
}

/** processOp on a fresh OoO master lane: one warm pass, one timed
 *  pass over the master streams (µs-stall ops dropped: applying the
 *  stall is the scenario loop's job, not the pipeline's). */
double
replayProcessOp(const std::vector<MicroOp> &ops,
                std::vector<Cycle> *issue_times)
{
    DyadMemorySystem mem(MemSystemConfig::makeDefault());
    CoreEngine engine{CoreEngineConfig{}};
    auto pred = makePredictor(PredictorConfig::Kind::Tournament);
    Btb btb(2048, 4);
    ReturnAddressStack ras(32);
    Lane lane;
    LaneConfig cfg = engine.defaultLaneConfig(IssueMode::OutOfOrder);
    cfg.path = mem.masterPath();
    cfg.branch = {pred.get(), &btb, &ras};
    lane.configure(cfg);

    for (const MicroOp &op : ops)
        engine.processOp(lane, op);
    std::uint64_t acc = 0;
    const Clock::time_point t0 = Clock::now();
    for (const MicroOp &op : ops)
        acc += engine.processOp(lane, op).commit_time;
    const double ns = nsPer(t0, ops.size());
    sink(acc);
    if (issue_times != nullptr) {
        // A separate, untimed pass on the warmed lane supplies the
        // calendar replay's request times.
        issue_times->clear();
        for (const MicroOp &op : ops)
            issue_times->push_back(engine.processOp(lane, op).issue_time);
    }
    return ns;
}

/** The lender-style HSMT unit: 8 InO lanes over a 32-context pool of
 *  calibrated PageRank/SSSP threads, driven by advanceUntil in short
 *  bounded steps as the scenario loop drives it. */
double
replayHsmt(std::uint64_t seed)
{
    class OpCounter : public CommitSink
    {
      public:
        void
        onCommit(const VirtualContext &, const OpOutcome &) override
        {
            ++ops;
        }
        std::uint64_t ops = 0;
    };

    const Frequency freq(3.4e9);
    DyadMemorySystem mem(MemSystemConfig::makeDefault());
    CoreEngine engine{CoreEngineConfig{}};
    auto pred = makePredictor(PredictorConfig::Kind::GshareSmall);
    Btb btb(2048, 4);
    std::vector<std::unique_ptr<ReturnAddressStack>> ras;
    VirtualContextPool pool;
    std::vector<std::unique_ptr<BatchSource>> sources;
    std::vector<std::unique_ptr<VirtualContext>> contexts;
    Rng rng(seed);
    for (ThreadId uid = 1; uid <= 32; ++uid) {
        const BatchKind kind =
            uid % 2 == 1 ? BatchKind::PageRank : BatchKind::Sssp;
        sources.push_back(std::make_unique<BatchSource>(
            calibratedBatch(kind, uid), rng.fork(uid)));
        contexts.push_back(
            std::make_unique<VirtualContext>(uid, sources.back().get()));
        pool.add(contexts.back().get());
    }
    HsmtConfig hcfg;
    hcfg.quantum = freq.microsToCycles(100.0);
    HsmtUnit unit(engine, pool, hcfg, freq);
    LaneConfig proto = engine.defaultLaneConfig(IssueMode::InOrder);
    proto.path = mem.lenderPath();
    for (std::uint32_t i = 0; i < unit.numLanes(); ++i) {
        ras.push_back(std::make_unique<ReturnAddressStack>(16));
        proto.branch = {pred.get(), &btb, ras.back().get()};
        unit.configureLane(i, proto);
    }
    unit.openWindow(0, HsmtUnit::never);

    OpCounter counter;
    const Cycle warm = 200'000, horizon = 600'000, step = 2'048;
    for (Cycle b = step; b <= warm; b += step)
        unit.advanceUntil(b, &counter);
    const std::uint64_t before = counter.ops;
    const Clock::time_point t0 = Clock::now();
    for (Cycle b = warm + step; b <= warm + horizon; b += step)
        unit.advanceUntil(b, &counter);
    return nsPer(t0, counter.ops - before);
}

struct MemReplay
{
    double cache_ns = 0.0, tlb_ns = 0.0;
    double cache_hit_ratio = 0.0, tlb_hit_ratio = 0.0;
};

/** Cache::access / Tlb::access on the L1D/DTLB geometry of Table I
 *  over the workload's data-address stream. */
MemReplay
replayMemory(const std::vector<std::pair<Addr, bool>> &accesses)
{
    const MemSystemConfig cfg = MemSystemConfig::makeDefault();
    MemReplay out;
    out.cache_ns = medianOf3([&] {
        Cache cache(cfg.l1d);
        Cycle now = 0;
        std::uint64_t acc = 0;
        for (const auto &[addr, write] : accesses)
            acc += cache.access(addr, write, now++).latency;
        const CacheStats warm = cache.stats();
        const Clock::time_point t0 = Clock::now();
        for (const auto &[addr, write] : accesses)
            acc += cache.access(addr, write, now++).latency;
        const double ns = nsPer(t0, accesses.size());
        sink(acc);
        const CacheStats &s = cache.stats();
        const std::uint64_t n = s.accesses() - warm.accesses();
        out.cache_hit_ratio =
            n == 0 ? 0.0
                   : static_cast<double>(s.hits - warm.hits) /
                         static_cast<double>(n);
        return ns;
    });
    out.tlb_ns = medianOf3([&] {
        Tlb tlb(cfg.dtlb);
        std::uint64_t acc = 0;
        for (const auto &a : accesses)
            acc += tlb.access(a.first);
        const TlbStats warm = tlb.stats();
        const Clock::time_point t0 = Clock::now();
        for (const auto &a : accesses)
            acc += tlb.access(a.first);
        const double ns = nsPer(t0, accesses.size());
        sink(acc);
        const TlbStats &s = tlb.stats();
        const std::uint64_t n = s.accesses() - warm.accesses();
        out.tlb_hit_ratio =
            n == 0 ? 0.0
                   : static_cast<double>(s.hits - warm.hits) /
                         static_cast<double>(n);
        return ns;
    });
    return out;
}

} // namespace

LayerMetrics
replayDyadLayers(const std::vector<MicroserviceKind> &services,
                 bool with_fillers, std::uint64_t seed,
                 std::uint64_t parent_span)
{
    LayerMetrics m;
    std::size_t master_streams = 0;
    std::vector<Stream> streams;
    {
        Span span("replay.build_streams", parent_span);
        streams = buildStreams(services, with_fillers, seed,
                               master_streams);
    }

    std::vector<MicroOp> master_ops;
    for (std::size_t s = 0; s < master_streams; ++s)
        for (const MicroOp &op : streams[s].ops)
            if (op.cls != OpClass::Remote)
                master_ops.push_back(op);

    std::vector<Cycle> issue_times;
    {
        Span span("replay.cpu.process_op", parent_span);
        m["cpu.process_op_ns"] = medianOf3(
            [&] { return replayProcessOp(master_ops, &issue_times); });
    }
    {
        Span span("replay.cpu.hsmt", parent_span);
        m["cpu.hsmt_op_ns"] = medianOf3([&] { return replayHsmt(seed); });
    }

    // Data addresses of every stream that runs on the master core,
    // interleaved block-wise as the morphing designs alternate the
    // master thread and its fillers.
    std::vector<std::pair<Addr, bool>> accesses;
    constexpr std::size_t kChunk = kOpBlockCapacity;
    for (std::size_t base = 0; base < kStreamOps; base += kChunk)
        for (const Stream &s : streams)
            for (std::size_t i = base;
                 i < std::min(base + kChunk, s.ops.size()); ++i)
                if (s.ops[i].cls == OpClass::Load ||
                    s.ops[i].cls == OpClass::Store)
                    accesses.emplace_back(s.ops[i].mem_addr,
                                          s.ops[i].cls == OpClass::Store);
    {
        Span span("replay.mem", parent_span);
        const MemReplay mem = replayMemory(accesses);
        m["mem.cache_access_ns"] = mem.cache_ns;
        m["mem.tlb_access_ns"] = mem.tlb_ns;
        m["mem.cache_hit_ratio"] = mem.cache_hit_ratio;
        m["mem.tlb_hit_ratio"] = mem.tlb_hit_ratio;
    }

    {
        Span span("replay.branch", parent_span);
        std::vector<std::pair<Addr, bool>> branches;
        for (const MicroOp &op : master_ops)
            if (op.cls == OpClass::Branch)
                branches.emplace_back(op.pc, op.taken);
        double rate = 0.0;
        m["branch.predict_ns"] = medianOf3([&] {
            auto pred = makePredictor(PredictorConfig::Kind::Tournament);
            std::uint64_t acc = 0;
            for (const auto &[pc, taken] : branches)
                acc += pred->predictAndUpdate(pc, taken);
            const BranchStats warm = pred->stats();
            const Clock::time_point t0 = Clock::now();
            for (const auto &[pc, taken] : branches)
                acc += pred->predictAndUpdate(pc, taken);
            const double ns = nsPer(t0, branches.size());
            sink(acc);
            const BranchStats &s = pred->stats();
            const std::uint64_t n = s.lookups - warm.lookups;
            rate = n == 0 ? 0.0
                          : static_cast<double>(s.mispredicts -
                                                warm.mispredicts) /
                                static_cast<double>(n);
            return ns;
        });
        m["branch.mispredict_rate"] = rate;
    }

    {
        Span span("replay.workload.fill_ops", parent_span);
        m["workload.fill_op_ns"] = medianOf3([&] {
            OpBlock block;
            std::uint64_t ops = 0, acc = 0;
            Clock::time_point t0 = Clock::now();
            for (std::size_t s = 0; s < streams.size(); ++s) {
                SyntheticStream stream(streams[s].character,
                                       Rng(seed).fork(100 + s));
                for (std::size_t i = 0; i < kStreamOps;
                     i += kOpBlockCapacity) {
                    block.clear();
                    stream.fillOpsInto(block, kOpBlockCapacity);
                    acc += block.memAddr()[block.size() - 1];
                    ops += block.size();
                }
            }
            const double ns = nsPer(t0, ops);
            sink(acc);
            return ns;
        });
    }

    {
        Span span("replay.sim.slot_calendar", parent_span);
        m["sim.slot_calendar_ns"] = medianOf3([&] {
            SlotCalendar cal(4);
            std::uint64_t acc = 0;
            const Clock::time_point t0 = Clock::now();
            for (Cycle t : issue_times)
                acc += cal.tryReserveAt(t);
            const double ns = nsPer(t0, issue_times.size());
            sink(acc + 1);
            return ns;
        });
    }
    return m;
}

LayerMetrics
replayTailLayers(const std::vector<QueueInputs> &runs,
                 std::uint32_t servers, std::uint64_t seed,
                 std::uint64_t parent_span)
{
    LayerMetrics m;
    constexpr std::size_t kDraws = 1u << 21;
    const std::size_t per_run = kDraws / runs.size();

    // Draws of every run, kept for the downstream replays.
    std::vector<double> arrivals(per_run * runs.size());
    std::vector<double> services(per_run * runs.size());
    {
        Span span("replay.sim.sample", parent_span);
        m["sim.sample_ns"] = medianOf3([&] {
            const Clock::time_point t0 = Clock::now();
            for (std::size_t r = 0; r < runs.size(); ++r) {
                Rng rng = Rng(seed).fork(r);
                FastSampler(runs[r].interarrival)
                    .sampleN(rng, &arrivals[r * per_run], per_run);
                FastSampler(runs[r].service)
                    .sampleN(rng, &services[r * per_run], per_run);
            }
            return nsPer(t0, 2 * per_run * runs.size());
        });
    }
    // Interarrival gaps -> arrival times, per run.
    for (std::size_t r = 0; r < runs.size(); ++r)
        for (std::size_t i = r * per_run + 1; i < (r + 1) * per_run; ++i)
            arrivals[i] += arrivals[i - 1];

    Rng words(seed ^ 0x5a5a5a5aull);
    std::vector<std::uint64_t> rng_words(services.size());
    words.fillBlock(rng_words.data(), rng_words.size());
    {
        Span span("replay.sim.stats_add", parent_span);
        m["sim.stats_add_ns"] = medianOf3([&] {
            SampleStats stats;
            stats.reserveHint(services.size());
            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < services.size(); ++i)
                stats.add(services[i], rng_words[i]);
            const double ns = nsPer(t0, services.size());
            sink(stats.count());
            return ns;
        });
    }

    m["sim.sketch_add_ns"] = 0.0;
    m["queueing.assign_ns"] = 0.0;
    if (servers > 1) {
        {
            Span span("replay.sim.sketch_add", parent_span);
            m["sim.sketch_add_ns"] = medianOf3([&] {
                QuantileSketch sketch;
                const Clock::time_point t0 = Clock::now();
                for (double v : services)
                    sketch.add(v);
                const double ns = nsPer(t0, services.size());
                sink(sketch.count());
                return ns;
            });
        }
        Span span("replay.queueing.assign", parent_span);
        m["queueing.assign_ns"] = medianOf3([&] {
            double acc = 0.0;
            const Clock::time_point t0 = Clock::now();
            for (std::size_t r = 0; r < runs.size(); ++r) {
                ServerSchedule schedule(servers);
                for (std::size_t i = r * per_run; i < (r + 1) * per_run;
                     ++i)
                    acc += schedule.assign(arrivals[i], services[i]).start;
            }
            const double ns = nsPer(t0, runs.size() * per_run);
            sink(static_cast<std::uint64_t>(acc) + 1);
            return ns;
        });
    }
    return m;
}

} // namespace perfbench
