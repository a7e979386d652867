#include "digest.hh"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace perfbench
{

using namespace duplexity;

void
Digest::word(std::uint64_t v)
{
    ++n_;
    a_ = (a_ ^ v) * 0x100000001b3ull;
    a_ ^= a_ >> 29;
    b_ = std::rotl(b_ ^ (v + n_), 31) * 0x9e3779b97f4a7c15ull + a_;
}

std::string
Digest::hex() const
{
    std::uint64_t x = a_ ^ (b_ >> 17), y = b_ ^ (a_ << 13) ^ n_;
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(x),
                  static_cast<unsigned long long>(y));
    return buf;
}

namespace
{

void
mixSamples(Digest &d, const SampleStats &s)
{
    d.word(s.count());
    d.f64(s.mean());
    d.f64(s.stddev());
    d.f64(s.min());
    d.f64(s.max());
    // Retained values in sorted order: a lazy sort elsewhere may have
    // reordered the store, never changed its contents.
    std::vector<double> values = s.samples();
    std::sort(values.begin(), values.end());
    d.word(values.size());
    for (double v : values)
        d.f64(v);
}

void
mixTail(Digest &d, const TailSummary &t)
{
    d.word(t.exact() ? 1 : 2);
    d.word(t.count());
    if (t.empty())
        return;
    d.f64(t.mean());
    d.f64(t.stddev());
    d.f64(t.min());
    d.f64(t.max());
    if (t.exact()) {
        // fromExact() finalized the store, so this order is sorted.
        const std::vector<double> &values = t.samples();
        d.word(values.size());
        for (double v : values)
            d.f64(v);
        return;
    }
    const QuantileSketch *sketch = t.sketch();
    d.word(sketch->retained());
    d.word(sketch->errorBound());
    for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999})
        d.f64(sketch->percentile(p));
}

} // namespace

std::string
digestOf(const ScenarioResult &r)
{
    Digest d;
    d.word(static_cast<std::uint64_t>(r.design));
    d.word(static_cast<std::uint64_t>(r.service));
    d.f64(r.load);
    d.f64(r.frequency_ghz);
    d.f64(r.seconds);
    d.f64(r.utilization);
    mixSamples(d, r.service_us);
    mixSamples(d, r.sojourn_us);
    mixSamples(d, r.wait_us);
    d.word(r.requests);
    d.f64(r.batch_stp);
    d.f64(r.batch_ops_per_sec);
    d.f64(r.remote_ops_per_sec);
    const ActivityCounters &a = r.activity;
    d.f64(a.seconds);
    for (std::uint64_t v : {a.ooo_ops, a.ino_ops, a.l1_accesses,
                            a.llc_accesses, a.dram_accesses,
                            a.l0_accesses, a.link_traversals})
        d.word(v);
    d.f64(r.offered_rps);
    d.f64(r.filler_window_fraction);
    d.word(r.filler_ops);
    d.word(r.lender_ops);
    d.word(r.master_ops);
    d.word(r.filler_swaps);
    return d.hex();
}

std::string
digestOf(const QueueSimResult &r)
{
    Digest d;
    mixTail(d, r.sojourn);
    mixTail(d, r.wait);
    mixTail(d, r.idle_periods);
    d.f64(r.utilization);
    d.word(r.completed);
    d.word(r.converged ? 1 : 0);
    d.word(r.replicas);
    return d.hex();
}

} // namespace perfbench
