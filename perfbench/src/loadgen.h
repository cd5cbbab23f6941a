/**
 * @file
 * Open-loop load generator for the serving daemon: one thread sends
 * pre-rendered requests on a Poisson schedule over a few loopback
 * connections and reads the answers as they arrive, so a slow server
 * builds a queue instead of slowing the sender down. Each request is
 * timed from the moment it was due, not from when it was sent.
 */

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "nasbench/arch.h"

namespace perfbench
{

/** One request of the traffic mix, rendered once before timing. */
struct ServeRequest
{
    bool rank = false; ///< "rank" op, else "predict"
    std::vector<hwpr::nasbench::Architecture> archs;
    std::string body; ///< JSON payload (without the frame header)
};

/** Latency recorded for a request that failed or was never answered:
 *  far beyond any limit, so it misses every latency bound. */
inline constexpr double kFailedLatencyUs = 1e9;

/** Outcome of sending one slice of requests at one offered rate. */
struct OpenLoopResult
{
    double offeredQps = 0.0;
    std::size_t sent = 0;
    std::size_t answered = 0; ///< answered with "ok": true
    std::size_t failed = 0;   ///< error answer, lost or timed out
    /** Due-time-to-answer latency per request, in schedule order. */
    std::vector<double> latencyUs;
    /** Generator lateness (actual send - due time) per request. */
    std::vector<double> lagUs;
    /** Payloads of the requests flagged in @p keep, by slice index. */
    std::vector<std::string> kept;
    double wallSec = 0.0;
};

/**
 * Send requests[begin, begin + count) to 127.0.0.1:@p port at
 * @p qps with exponential gaps drawn from @p arrivalSeed, round-robin
 * over @p connections. Returns once every request is answered or
 * @p graceSec after the last one was due (then the rest count as
 * failed). Requests whose slice index is set in @p keep have their
 * answer payload kept for verification.
 */
OpenLoopResult runOpenLoop(int port,
                           const std::vector<ServeRequest> &requests,
                           std::size_t begin, std::size_t count,
                           double qps, std::uint64_t arrivalSeed,
                           std::size_t connections,
                           const std::vector<bool> &keep,
                           double graceSec);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
