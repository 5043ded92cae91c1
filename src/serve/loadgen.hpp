/**
 * @file
 * Load generator for the serve daemon (`tbstc loadgen`).
 *
 * Drives N closed-loop client connections through a deterministic
 * request mix derived from one seed, measures per-request latency from
 * send to response, honors busy back-pressure (sleeps the server's
 * retry_after_ms hint and resends), and reports throughput plus
 * p50/p95/p99 latency.
 *
 * Verification modes back the daemon's byte-identity bar:
 *  - responses sharing a request signature must carry identical csv
 *    bytes (counted in `mismatched` when they do not);
 *  - verify=true additionally re-executes each distinct request
 *    in-process
 *    through the same serve::exec entry points and compares the
 *    daemon's csv bytes against the local result — the exact bytes
 *    one-shot `tbstc run` would print.
 */

#ifndef TBSTC_SERVE_LOADGEN_HPP
#define TBSTC_SERVE_LOADGEN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "protocol.hpp"
#include "util/result.hpp"

namespace tbstc::serve {

struct LoadgenOptions
{
    /** Unix socket path; empty → TCP to 127.0.0.1:port. */
    std::string socketPath;
    uint16_t port = 0;

    size_t clients = 8;         ///< Concurrent closed-loop clients.
    size_t totalRequests = 200; ///< Across all clients.
    uint64_t seed = 42;         ///< Mix derivation seed.
    size_t maxRetries = 1000;   ///< Busy/rate-limit retries per req.
    bool verify = false;        ///< Recompute distinct results locally.

    /**
     * Chaos clients running alongside the honest load (`--chaos N`):
     * each loops sending corrupted frames — bit-flipped payloads,
     * length-prefix lies, truncations, garbage bytes, mid-frame
     * disconnects — plus periodic well-formed pings that must still
     * be answered. The honest load's success is the assertion that
     * hostile traffic cannot take the daemon down.
     */
    size_t chaosClients = 0;
    uint64_t chaosSeed = 1337; ///< Chaos mutation derivation seed.
};

struct LoadgenStats
{
    uint64_t sent = 0;        ///< Requests sent (excluding retries).
    uint64_t ok = 0;          ///< Success responses.
    uint64_t busyRetries = 0; ///< Busy rejections retried.
    uint64_t errors = 0;      ///< Non-busy failures (incl. transport).
    uint64_t mismatched = 0;  ///< csv-byte mismatches (see file doc).
    uint64_t chaosFrames = 0;   ///< Corrupted frames sent by chaos.
    uint64_t chaosProbesOk = 0; ///< Chaos pings answered correctly.
    double elapsedSeconds = 0.0;
    double reqPerSec = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
};

/**
 * Build the deterministic request mix: run requests cycling small
 * layers × accelerators × sparsities plus sparsify requests, ids
 * assigned 1..total. Depends only on (total, seed).
 */
std::vector<Request> buildMix(size_t total, uint64_t seed);

/**
 * The one-shot CLI command equivalent to @p req ("tbstc run ..." or
 * "tbstc formats ..."), for CI scripts that diff daemon responses
 * against one-shot runs. --mask-strategy appears only when the request
 * names one.
 */
std::string oneShotCommand(const Request &req);

/** Run the load; returns stats or a connection/setup error. */
util::Result<LoadgenStats, std::string>
runLoadgen(const LoadgenOptions &opts);

/** Render @p s as the stable tbstc.loadgen.v1 JSON document. */
std::string loadgenJson(const LoadgenStats &s);

} // namespace tbstc::serve

#endif // TBSTC_SERVE_LOADGEN_HPP
