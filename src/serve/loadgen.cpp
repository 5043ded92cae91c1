#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/json.hpp"
#include "util/rng.hpp"

namespace tbstc::serve {

using obs::JsonValue;
using obs::jsonNumber;
using obs::parseJson;

namespace {

/** Connect to the daemon; -1 + errno message on failure. */
int
connectDaemon(const LoadgenOptions &opts, std::string &err)
{
    return connectClient(opts.socketPath, opts.port, err);
}

/**
 * Signature of a request: its serialization with id and deadline
 * zeroed (mirrors the batcher's dedup key).
 */
std::string
signatureOf(const Request &req)
{
    Request key = req;
    key.id = 0;
    key.deadlineMs = 0;
    return serializeRequest(key);
}

/**
 * One chaos client (`--chaos`): loops until @p stop, each round
 * connecting and sending a seeded corruption of a valid frame — bit
 * flips, garbage JSON, length-prefix lies, oversize claims, raw
 * garbage bytes, or a mid-frame disconnect. Corruptions that keep the
 * framing intact are followed by a well-formed ping on the same
 * connection that must still be answered (counted in @p probesOk);
 * desyncing ones abandon the connection, as a real hostile or broken
 * peer would.
 */
void
chaosClient(const LoadgenOptions &opts, uint64_t seed,
            const std::atomic<bool> &stop,
            std::atomic<uint64_t> &frames,
            std::atomic<uint64_t> &probesOk)
{
    util::Rng rng(seed);
    std::string frame;
    while (!stop.load(std::memory_order_relaxed)) {
        std::string err;
        const int fd = connectClient(opts.socketPath, opts.port, err);
        if (fd < 0) {
            // Shed at the connection cap, or transient: back off.
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            continue;
        }
        Request req;
        req.id = rng.below(1000) + 1;
        req.op = Op::Ping;
        const std::string payload = serializeRequest(req);
        bool framingSafe = true;
        switch (rng.below(6)) {
          case 0: { // bit flip inside a correctly framed payload
            std::string p = payload;
            p[rng.below(p.size())] ^=
                static_cast<char>(1u << rng.below(8));
            (void)writeFrame(fd, p);
            break;
          }
          case 1: // truncated JSON inside a correctly framed payload
            (void)writeFrame(fd, "{\"op\": \"ping\", ");
            break;
          case 2: { // length-prefix lie: claim more than is sent
            const uint8_t hdr[4] = {0xff, 0xff, 0x00, 0x00};
            (void)::send(fd, hdr, sizeof hdr, MSG_NOSIGNAL);
            (void)::send(fd, payload.data(), payload.size() / 2,
                         MSG_NOSIGNAL);
            framingSafe = false;
            break;
          }
          case 3: { // oversize length prefix (above the frame cap)
            const uint8_t hdr[4] = {0xff, 0xff, 0xff, 0x7f};
            (void)::send(fd, hdr, sizeof hdr, MSG_NOSIGNAL);
            framingSafe = false;
            break;
          }
          case 4: { // raw garbage bytes, no framing at all
            uint8_t junk[32];
            for (auto &b : junk)
                b = static_cast<uint8_t>(rng.below(256));
            (void)::send(fd, junk, sizeof junk, MSG_NOSIGNAL);
            framingSafe = false;
            break;
          }
          default: { // mid-frame disconnect
            const uint8_t hdr[4] = {
                static_cast<uint8_t>(payload.size()), 0, 0, 0};
            (void)::send(fd, hdr, sizeof hdr, MSG_NOSIGNAL);
            (void)::send(fd, payload.data(), payload.size() / 2,
                         MSG_NOSIGNAL);
            framingSafe = false;
            break;
          }
        }
        frames.fetch_add(1, std::memory_order_relaxed);
        if (framingSafe) {
            // Drain the server's verdict on the corrupted frame, then
            // prove the session still works with a clean ping.
            (void)readFrameDeadline(fd, frame, kDefaultMaxFrameBytes,
                                    {2000, 2000});
            Request probe;
            probe.id = 424242;
            probe.op = Op::Ping;
            if (writeFrame(fd, serializeRequest(probe))
                && readFrameDeadline(fd, frame, kDefaultMaxFrameBytes,
                                     {2000, 2000})
                    == FrameStatus::Ok) {
                const auto doc = parseJson(frame);
                if (doc && doc->isObject()
                    && doc->get("ok").asBool(false))
                    probesOk.fetch_add(1, std::memory_order_relaxed);
            }
        }
        ::close(fd);
    }
}

/** Shared across client threads. */
struct Shared
{
    std::mutex m;
    std::map<std::string, std::string> csvBySig; // first response wins
    uint64_t mismatched = 0;
};

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double idx = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
    const double frac = idx - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

std::vector<Request>
buildMix(size_t total, uint64_t seed)
{
    static const char *kLayers[] = {"256x256x1", "512x512x1",
                                    "384x256x2"};
    static const char *kAccels[] = {"tbstc", "stc", "tc", "fan"};
    static const double kSparsities[] = {0.5, 0.75};

    util::Rng rng(seed);
    std::vector<Request> mix;
    mix.reserve(total);
    for (size_t i = 0; i < total; ++i) {
        Request req;
        req.id = static_cast<uint64_t>(i) + 1;
        // ~1 in 8 requests exercises the sparsify/DDC path; the rest
        // the simulation path.
        if (rng.below(8) == 0) {
            req.op = Op::Sparsify;
            req.sparsify.layer = rng.below(2) == 0 ? "128x128x1"
                                                   : "256x256x1";
            req.sparsify.sparsity = 0.75;
            req.sparsify.seed = 42;
            req.sparsify.m = 8;
        } else {
            req.op = Op::Run;
            req.run.kind = *tryParseAccel(kAccels[rng.below(4)]);
            req.run.layer = kLayers[rng.below(3)];
            req.run.sparsity = kSparsities[rng.below(2)];
            req.run.seed = 42;
        }
        mix.push_back(std::move(req));
    }
    return mix;
}

std::string
oneShotCommand(const Request &req)
{
    // buildMix's sparsify requests keep m = 8, the block size `formats`
    // always uses, so the command needs (and `formats` has) no --m.
    char buf[256];
    const bool sparsify = req.op == Op::Sparsify;
    const std::string &strategy =
        sparsify ? req.sparsify.strategy : req.run.strategy;
    if (sparsify)
        std::snprintf(buf, sizeof buf,
                      "tbstc formats --layer %s --sparsity %g --seed %llu",
                      req.sparsify.layer.c_str(), req.sparsify.sparsity,
                      static_cast<unsigned long long>(
                          req.sparsify.seed));
    else
        std::snprintf(buf, sizeof buf,
                      "tbstc run --accel %s --layer %s --sparsity %g "
                      "--seed %llu --csv",
                      accelWireName(req.run.kind).c_str(),
                      req.run.layer.c_str(), req.run.sparsity,
                      static_cast<unsigned long long>(req.run.seed));
    std::string cmd = buf;
    if (!strategy.empty())
        cmd += " --mask-strategy " + strategy;
    return cmd;
}

util::Result<LoadgenStats, std::string>
runLoadgen(const LoadgenOptions &opts)
{
    if (opts.clients == 0 || opts.totalRequests == 0)
        return util::unexpected(
            std::string("need clients > 0 and requests > 0"));

    const auto mix = buildMix(opts.totalRequests, opts.seed);

    // Probe the connection once before spawning clients so setup
    // failures surface as one clean error.
    {
        std::string err;
        const int fd = connectDaemon(opts, err);
        if (fd < 0)
            return util::unexpected(err);
        ::close(fd);
    }

    Shared shared;
    std::atomic<uint64_t> sent{0};
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> busyRetries{0};
    std::atomic<uint64_t> errors{0};
    std::vector<std::vector<double>> latencies(opts.clients);

    // Chaos clients run for the duration of the honest load.
    std::atomic<bool> chaosStop{false};
    std::atomic<uint64_t> chaosFrames{0};
    std::atomic<uint64_t> chaosProbesOk{0};
    std::vector<std::thread> chaos;
    chaos.reserve(opts.chaosClients);
    for (size_t c = 0; c < opts.chaosClients; ++c)
        chaos.emplace_back([&, c] {
            chaosClient(opts, opts.chaosSeed + c, chaosStop,
                        chaosFrames, chaosProbesOk);
        });

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(opts.clients);
    for (size_t c = 0; c < opts.clients; ++c) {
        clients.emplace_back([&, c] {
            std::string err;
            const int fd = connectDaemon(opts, err);
            if (fd < 0) {
                errors.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            std::string frame;
            // Client c takes mix indices c, c+clients, c+2*clients...
            for (size_t i = c; i < mix.size(); i += opts.clients) {
                const Request &req = mix[i];
                const std::string payload = serializeRequest(req);
                bool answered = false;
                const auto sendT = std::chrono::steady_clock::now();
                for (size_t attempt = 0;
                     attempt <= opts.maxRetries && !answered;
                     ++attempt) {
                    if (attempt == 0)
                        sent.fetch_add(1, std::memory_order_relaxed);
                    if (!writeFrame(fd, payload)
                        || readFrame(fd, frame) != FrameStatus::Ok) {
                        errors.fetch_add(1,
                                         std::memory_order_relaxed);
                        ::close(fd);
                        return;
                    }
                    const auto doc = parseJson(frame);
                    if (!doc || !doc->isObject()) {
                        errors.fetch_add(1,
                                         std::memory_order_relaxed);
                        answered = true;
                        break;
                    }
                    if (doc->get("ok").asBool(false)) {
                        const auto recvT =
                            std::chrono::steady_clock::now();
                        latencies[c].push_back(
                            std::chrono::duration<double,
                                                  std::milli>(
                                recvT - sendT)
                                .count());
                        ok.fetch_add(1, std::memory_order_relaxed);
                        answered = true;
                        // Cross-check response bytes against the
                        // first response seen for this signature:
                        // the csv line for runs, the DDC stream CRC
                        // for sparsifies.
                        const JsonValue &res = doc->get("result");
                        std::string csv;
                        if (res.has("csv"))
                            csv = res.get("csv").asString();
                        else
                            csv = jsonNumber(
                                res.get("ddc_crc32").asNumber(-1.0));
                        const std::lock_guard lk(shared.m);
                        const auto [it, inserted] =
                            shared.csvBySig.try_emplace(
                                signatureOf(req), csv);
                        if (!inserted && it->second != csv)
                            ++shared.mismatched;
                        break;
                    }
                    const std::string &kind =
                        doc->get("kind").asString();
                    if (kind == "busy" || kind == "rate_limited") {
                        busyRetries.fetch_add(
                            1, std::memory_order_relaxed);
                        const double ms =
                            doc->get("retry_after_ms")
                                .asNumber(static_cast<double>(
                                    kDefaultRetryAfterMs));
                        std::this_thread::sleep_for(
                            std::chrono::duration<double,
                                                  std::milli>(ms));
                        continue;
                    }
                    errors.fetch_add(1, std::memory_order_relaxed);
                    answered = true;
                }
                if (!answered)
                    errors.fetch_add(1, std::memory_order_relaxed);
            }
            ::close(fd);
        });
    }
    for (auto &t : clients)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();
    chaosStop.store(true, std::memory_order_relaxed);
    for (auto &t : chaos)
        t.join();

    LoadgenStats s;
    s.sent = sent.load();
    s.ok = ok.load();
    s.busyRetries = busyRetries.load();
    s.errors = errors.load();
    s.mismatched = shared.mismatched;
    s.chaosFrames = chaosFrames.load();
    s.chaosProbesOk = chaosProbesOk.load();
    s.elapsedSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    s.reqPerSec = s.elapsedSeconds > 0.0
        ? static_cast<double>(s.ok) / s.elapsedSeconds
        : 0.0;

    std::vector<double> all;
    for (const auto &v : latencies)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    s.p50Ms = percentile(all, 0.50);
    s.p95Ms = percentile(all, 0.95);
    s.p99Ms = percentile(all, 0.99);

    if (opts.verify) {
        // Re-run each distinct request in-process through the same
        // exec entry points and demand byte-identical csv fields.
        std::map<std::string, std::string> csvBySig;
        {
            const std::lock_guard lk(shared.m);
            csvBySig = shared.csvBySig;
        }
        for (const auto &req : mix) {
            const auto it = csvBySig.find(signatureOf(req));
            if (it == csvBySig.end())
                continue;
            std::string local;
            try {
                if (req.op == Op::Run) {
                    local = formatStats(accel::accelName(req.run.kind),
                                        executeRun(req.run), true);
                } else {
                    local = jsonNumber(static_cast<double>(
                        executeSparsify(req.sparsify).ddcCrc32));
                }
            } catch (const std::exception &) {
                ++s.mismatched;
                continue;
            }
            if (local != it->second)
                ++s.mismatched;
            csvBySig.erase(it); // verify each signature once
        }
    }
    return s;
}

std::string
loadgenJson(const LoadgenStats &s)
{
    std::string out = "{\"schema\": \"tbstc.loadgen.v1\"";
    out += ", \"sent\": " + std::to_string(s.sent);
    out += ", \"ok\": " + std::to_string(s.ok);
    out += ", \"busy_retries\": " + std::to_string(s.busyRetries);
    out += ", \"errors\": " + std::to_string(s.errors);
    out += ", \"mismatched\": " + std::to_string(s.mismatched);
    out += ", \"chaos_frames\": " + std::to_string(s.chaosFrames);
    out += ", \"chaos_probes_ok\": "
        + std::to_string(s.chaosProbesOk);
    out += ", \"elapsed_s\": " + jsonNumber(s.elapsedSeconds);
    out += ", \"req_per_s\": " + jsonNumber(s.reqPerSec);
    out += ", \"latency_ms\": {\"p50\": " + jsonNumber(s.p50Ms)
        + ", \"p95\": " + jsonNumber(s.p95Ms)
        + ", \"p99\": " + jsonNumber(s.p99Ms) + "}}";
    return out;
}

} // namespace tbstc::serve
