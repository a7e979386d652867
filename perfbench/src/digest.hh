/**
 * @file
 * Bitwise digests of simulator outputs: every field of a
 * ScenarioResult and of a QueueSimResult is folded in by its raw bit
 * pattern, so any change to any simulated value changes the digest.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <bit>
#include <cstdint>
#include <string>

#include "core/scenario.hh"
#include "queueing/queue_sim.hh"

namespace perfbench
{

/** 128-bit non-cryptographic accumulator over 64-bit words. */
class Digest
{
  public:
    void word(std::uint64_t v);
    void f64(double v) { word(std::bit_cast<std::uint64_t>(v)); }

    /** 32 hex characters. */
    std::string hex() const;

  private:
    std::uint64_t a_ = 0x243f6a8885a308d3ull;
    std::uint64_t b_ = 0x13198a2e03707344ull;
    std::uint64_t n_ = 0;
};

std::string digestOf(const duplexity::ScenarioResult &r);

/**
 * Every simulated field of @p r.  idle_fast_forwards is left out: it
 * counts how often one fast path ran (telemetry that a change removing
 * or reshaping that path alters without changing any simulated value)
 * and is reported as a per-layer metric instead.
 */
std::string digestOf(const duplexity::QueueSimResult &r);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
