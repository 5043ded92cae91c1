/**
 * @file
 * The serve layer's probe, run inside grid_sweep's traced pass. An
 * in-process serve::Server on a unix socket takes an open-loop,
 * seeded Poisson stream: mostly warm `run` requests (cache hits), plus
 * uncached `sparsify` requests (greedy and optimal search) and cold
 * `run` requests with fresh seeds. Every reply must be byte-identical
 * to in-process executeRun / executeSparsify. The probe reports the
 * batcher's counters, the generator's lag, the in-process exec time
 * of each request kind, the serve-path overhead of a warm request, and
 * a sparsify decomposed into its public calls.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <thread>

#include <unistd.h>

#include "bench.hpp"
#include "core/mask_search.hpp"
#include "core/prune.hpp"
#include "format/serialize.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/contentstore.hpp"
#include "util/crc32.hpp"
#include "util/parallel.hpp"
#include "workload/synth.hpp"

namespace perfbench {

using namespace tbstc;
using serve::Request;
using serve::RunSpec;
using serve::SparsifySpec;

namespace {

/** Digest of the replies to the fixed default-seed requests, pinned at the benchmark's first commit. */
constexpr uint64_t kPinnedServeDigest = 0xbca70709da928b1eull;

/** One request in this many is heavy: sparsify or a cold run. */
constexpr size_t kHeavyEvery = 32;
constexpr size_t kSparsifySeeds = 4;
constexpr double kSparsifySparsity = 0.75;

constexpr size_t kConnections = 2;
/** Offered rate (req/s): low enough that warm requests rarely queue. */
constexpr double kBaseRate = 250.0;
constexpr size_t kBaseRequests = 1200;
constexpr double kProbeSeconds = 3.0;
/** Probe spans get op ids from here, clear of the grid's own ops. */
constexpr uint64_t kFirstOp = uint64_t{1} << 41;

constexpr uint64_t kSpecStream = 10;
constexpr uint64_t kMixStream = 11;
constexpr uint64_t kScheduleStream = 12;
constexpr uint64_t kColdStream = 13;

const char *const kWarmLayers[] = {"256x256x64", "512x256x64", "256x512x128",
                                   "512x512x64"};
const char *const kAccels[] = {"tc",    "stc",  "vegeta", "highlight",
                               "rmstc", "sgcn", "tbstc",  "fan"};
const double kSparsities[] = {0.5, 0.625, 0.75};
const char *const kColdLayer = "512x512x64";

enum class ReqKind : uint8_t
{
    Warm,
    Sparsify,
    Cold,
};

/** The seeded inputs of a run: the warm set and the sparsify set. */
struct Inputs
{
    std::vector<RunSpec> warm;
    std::vector<SparsifySpec> sparsify;
};

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    // Every accelerator x layer twice, so priming costs the same at any
    // seed; the seed picks sparsities and weight seeds.
    const size_t combos = std::size(kAccels) * std::size(kWarmLayers);
    for (size_t i = 0; i < 2 * combos; ++i) {
        const uint64_t r = deriveSeed(seed, kSpecStream, i);
        RunSpec s;
        s.kind = *serve::tryParseAccel(kAccels[i % std::size(kAccels)]);
        s.layer = kWarmLayers[i % combos / std::size(kAccels)];
        s.sparsity = kSparsities[r % std::size(kSparsities)];
        s.seed = mix64(r) % 100000;
        in.warm.push_back(s);
    }
    // Each weight seed with greedy and with optimal search.
    for (size_t i = 0; i < 2 * kSparsifySeeds; ++i) {
        SparsifySpec s;
        s.layer = "512x512x1";
        s.sparsity = kSparsifySparsity;
        s.seed =
            mix64(deriveSeed(seed, kSpecStream, 1000 + i / 2)) % 100000;
        s.strategy = i % 2 == 1 ? core::kOptimalStrategy : "";
        in.sparsify.push_back(s);
    }
    return in;
}

/** One planned request. */
struct Planned
{
    ReqKind kind = ReqKind::Warm;
    size_t spec = 0; ///< Index into the warm or sparsify set.
    Request req;
};

Request
runRequest(uint64_t id, const RunSpec &spec)
{
    Request r;
    r.id = id;
    r.op = serve::Op::Run;
    r.run = spec;
    return r;
}

Request
sparsifyRequest(uint64_t id, const SparsifySpec &spec)
{
    Request r;
    r.id = id;
    r.op = serve::Op::Sparsify;
    r.sparsify = spec;
    return r;
}

/** Result JSON of a run request, executed in this process. */
std::string
runJson(const RunSpec &spec)
{
    return serve::runResultJson(serve::executeRun(spec),
                                accel::accelName(spec.kind));
}

/** Reply bodies expected for the warm and sparsify sets. */
struct Expected
{
    std::vector<std::string> warm;
    std::vector<std::string> sparsify;
};

/** Computed in this process with the cache off: no shared state with the server's answers. */
Expected
expectedReplies(const Inputs &in)
{
    util::ContentStore &store = util::ContentStore::instance();
    store.setEnabled(false);
    Expected e;
    e.warm = util::parallelMap<std::string>(
        in.warm.size(), [&](size_t i) { return runJson(in.warm[i]); });
    e.sparsify = util::parallelMap<std::string>(
        in.sparsify.size(), [&](size_t i) {
            return serve::sparsifyResultJson(
                serve::executeSparsify(in.sparsify[i]));
        });
    store.setEnabled(true);
    return e;
}

/** The reply body an in-process execution gives for @p p. */
std::string
expectedBody(const Planned &p, const Expected &e)
{
    switch (p.kind) {
      case ReqKind::Warm:
        return serve::okResponse(p.req.id, e.warm[p.spec]);
      case ReqKind::Sparsify:
        return serve::okResponse(p.req.id, e.sparsify[p.spec]);
      case ReqKind::Cold:
        return serve::okResponse(p.req.id, runJson(p.req.run));
    }
    return {};
}

struct Reply
{
    bool got = false;
    std::string body;
};

/** What one open-loop phase observed. */
struct Phase
{
    std::vector<Planned> plans;
    std::vector<double> dueMs;
    std::vector<double> lagMs; ///< Generator lateness per send.
    std::vector<Reply> replies;
};

uint64_t
replyId(const std::string &body)
{
    constexpr std::string_view prefix = "{\"id\": ";
    if (body.compare(0, prefix.size(), prefix) != 0)
        return 0;
    return std::strtoull(body.c_str() + prefix.size(), nullptr, 10);
}

/**
 * Send @p phase.plans open loop at their due times over kConnections
 * connections and collect every reply. Each connection has a reader
 * thread; sends come from the calling thread. Ids are consecutive
 * from plans[0].req.id.
 */
void
openLoop(const std::string &sock, Phase &phase)
{
    const size_t n = phase.plans.size();
    phase.replies.assign(n, Reply{});
    phase.lagMs.assign(n, 0.0);
    const uint64_t idBase = n == 0 ? 0 : phase.plans[0].req.id;
    std::vector<std::string> payloads;
    payloads.reserve(n);
    for (const Planned &p : phase.plans)
        payloads.push_back(serve::serializeRequest(p.req));

    std::vector<int> fds;
    for (size_t c = 0; c < kConnections; ++c) {
        std::string err;
        const int fd = serve::connectClient(sock, 0, err);
        if (fd < 0) {
            for (int f : fds)
                ::close(f);
            throw std::runtime_error("connect " + sock + ": " + err);
        }
        fds.push_back(fd);
    }
    const auto start = Clock::now();
    std::vector<std::thread> readers;
    for (size_t c = 0; c < kConnections; ++c) {
        const size_t expect = n / kConnections + (c < n % kConnections);
        readers.emplace_back([&, c, expect] {
            std::string body;
            for (size_t got = 0; got < expect; ++got) {
                if (serve::readFrameDeadline(fds[c], body,
                                             serve::kDefaultMaxFrameBytes,
                                             {15000, 15000})
                    != serve::FrameStatus::Ok)
                    return;
                const uint64_t id = replyId(body);
                if (id < idBase || id - idBase >= n)
                    continue;
                Reply &r = phase.replies[id - idBase];
                r.got = true;
                r.body = body;
            }
        });
    }
    for (size_t i = 0; i < n; ++i) {
        const auto due = start
            + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(phase.dueMs[i]));
        std::this_thread::sleep_until(due);
        phase.lagMs[i] = msSince(start) - phase.dueMs[i];
        (void)serve::writeFrame(fds[i % kConnections], payloads[i]);
    }
    for (auto &t : readers)
        t.join();
    for (int fd : fds)
        ::close(fd);
}

/**
 * An open-loop phase of @p count requests at @p rate on mix stream
 * @p stream. Each window of kHeavyEvery requests holds one heavy
 * request at a seeded position. Heavy windows cycle through a cold
 * run, a greedy sparsify and two optimal sparsifies, each kind
 * rotating through its specs. So every phase of a given length carries
 * the same heavy work, and heavy requests never pile up.
 */
Phase
makePhase(const Inputs &in, uint64_t seed, uint64_t stream, double rate,
          size_t count, uint64_t &nextId)
{
    Phase ph;
    for (double t : poissonSchedule(rate, count,
                                    deriveSeed(seed, kScheduleStream, stream)))
        ph.dueMs.push_back(1000.0 * t);
    const uint64_t mix = deriveSeed(seed, kMixStream, stream);
    ph.plans.resize(count);
    for (size_t i = 0; i < count; ++i) {
        Planned &p = ph.plans[i];
        p.spec = deriveSeed(mix, 0, i) % in.warm.size();
        p.req = runRequest(0, in.warm[p.spec]);
    }
    const size_t rotation = mix % kSparsifySeeds;
    for (size_t w = 0; w * kHeavyEvery < count; ++w) {
        const size_t at =
            w * kHeavyEvery + deriveSeed(mix, 1, w) % kHeavyEvery;
        if (at >= count)
            break;
        Planned &p = ph.plans[at];
        const size_t cycle = w / 4;
        if (w % 4 == 0) {
            RunSpec cold;
            cold.kind = accel::AccelKind::TbStc;
            cold.layer = kColdLayer;
            // Wire numbers are doubles: keep seeds below 2^53.
            cold.seed = deriveSeed(mix, 2, w) >> 12;
            p.kind = ReqKind::Cold;
            p.req = runRequest(0, cold);
        } else {
            // in.sparsify alternates greedy, optimal per seed.
            const bool optimal = w % 4 >= 2;
            const size_t nth = optimal ? 2 * cycle + w % 4 - 2 : cycle;
            p.kind = ReqKind::Sparsify;
            p.spec = 2 * ((nth + rotation) % kSparsifySeeds) + optimal;
            p.req = sparsifyRequest(0, in.sparsify[p.spec]);
        }
    }
    for (Planned &p : ph.plans)
        p.req.id = nextId++;
    return ph;
}

/**
 * Check every reply of @p ph against in-process execution, counting
 * each request as one op.
 */
void
verify(const Phase &ph, const Expected &e, Outcome &out)
{
    size_t bad = 0;
    std::string first;
    for (size_t i = 0; i < ph.plans.size(); ++i) {
        const bool ok = ph.replies[i].got
            && ph.replies[i].body == expectedBody(ph.plans[i], e);
        if (!ok && bad++ == 0)
            first = ph.replies[i].got ? ph.replies[i].body.substr(0, 160)
                                      : "no reply";
    }
    out.attempted += ph.plans.size();
    out.failed += bad;
    if (bad > 0)
        out.note(strf("FAILED: %zu of %zu serve replies differ from "
                      "in-process execution; first: %s",
                      bad, ph.plans.size(), first.c_str()));
}

/** In-process server on a unix socket; stopped and joined on destruction. */
class LiveServer
{
  public:
    explicit LiveServer(const std::string &sock)
    {
        serve::ServerOptions opts;
        opts.socketPath = sock;
        server_ = std::make_unique<serve::Server>(opts);
        const auto started = server_->start();
        if (!started)
            throw std::runtime_error("server start: " + started.error());
    }
    ~LiveServer()
    {
        server_->beginShutdown();
        server_->wait();
    }
    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    serve::ServerCounters counters() const { return server_->counters(); }

  private:
    std::unique_ptr<serve::Server> server_;
};

/** Closed-loop round trip of one request; returns the reply body. */
std::string
roundTrip(int fd, const Request &req)
{
    std::string body;
    if (!serve::writeFrame(fd, serve::serializeRequest(req))
        || serve::readFrame(fd, body) != serve::FrameStatus::Ok)
        return {};
    return body;
}

/** The fixed default-seed requests whose replies are pinned. */
std::vector<Request>
pinnedRequests()
{
    RunSpec run;
    run.kind = accel::AccelKind::TbStc;
    run.layer = "512x512x128";
    run.seed = 42;
    SparsifySpec greedy;
    greedy.seed = 42;
    SparsifySpec optimal = greedy;
    optimal.strategy = core::kOptimalStrategy;
    return {runRequest(1, run), sparsifyRequest(2, greedy),
            sparsifyRequest(3, optimal)};
}

/**
 * Send the pinned requests, then prime the warm set, through the
 * server at @p sock. Returns the digest of the pinned replies.
 */
uint64_t
primeServer(const std::string &sock, const Inputs &in)
{
    std::string err;
    const int fd = serve::connectClient(sock, 0, err);
    if (fd < 0)
        throw std::runtime_error("connect " + sock + ": " + err);
    uint64_t d = 0xcbf29ce484222325ull;
    for (const Request &r : pinnedRequests())
        for (char ch : roundTrip(fd, r))
            d = digestMix(d, static_cast<uint8_t>(ch));
    // Prime one request at a time. Sent together, the warm set ran as
    // two 32-request batches on the pool, and host contention on any
    // one vCPU moved the set-up time by 3x between runs.
    for (size_t i = 0; i < in.warm.size(); ++i)
        (void)roundTrip(fd, runRequest(100 + i, in.warm[i]));
    ::close(fd);
    return d;
}

} // namespace

void
probeServeLayer(const Options &opt, Outcome &out)
{
    const std::string sock =
        strf("%s/perfbench-%d.sock", opt.workDir.c_str(),
             static_cast<int>(::getpid()));
    const Inputs in = makeInputs(opt.seed);
    const uint64_t pinned =
        opt.inject == "digest" ? ~kPinnedServeDigest : kPinnedServeDigest;
    LiveServer server(sock);
    const uint64_t d = primeServer(sock, in);
    out.check(d == pinned, "default-seed reply digest " + hex(d)
                               + " == pinned " + hex(pinned));
    const Expected e = expectedReplies(in);
    uint64_t nextId = 1000;

    const serve::ServerCounters c0 = server.counters();
    Phase base =
        makePhase(in, opt.seed, 1, kBaseRate, kBaseRequests, nextId);
    openLoop(sock, base);
    if (opt.inject == "reply")
        base.replies[0].body[base.replies[0].body.size() / 2] ^= 1;
    verify(base, e, out);
    const serve::ServerCounters c1 = server.counters();
    const auto answered = static_cast<double>(c1.answered - c0.answered);
    const auto batches = static_cast<double>(c1.batches - c0.batches);
    out.set("serve.batches", batches);
    out.set("serve.batch_size_mean", batches > 0 ? answered / batches : 0.0);
    out.set("serve.dedup_ratio",
            answered > 0 ? static_cast<double>(c1.dedupHits - c0.dedupHits)
                    / answered
                         : 0.0);
    out.set("serve.busy_rejected",
            static_cast<double>(c1.busyRejected - c0.busyRejected));
    out.set("serve.gen_lag_p99_ms", percentile(base.lagMs, 99.0));

    Tracer &tracer = Tracer::instance();
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(kProbeSeconds);
    std::vector<double> untracedWarm;
    uint64_t op = kFirstOp;
    for (size_t round = 0; round == 0 || Clock::now() < deadline; ++round) {
        tracer.setEnabled(false);
        for (const RunSpec &s : in.warm) {
            const auto t0 = Clock::now();
            (void)runJson(s);
            untracedWarm.push_back(msSince(t0));
        }
        tracer.setEnabled(true);
        for (size_t i = 0; i < in.warm.size(); ++i) {
            const Span root("serve.exec.run_warm", OpRoot{op++});
            out.check(runJson(in.warm[i]) == e.warm[i], "warm exec bytes");
        }
        {
            RunSpec cold;
            cold.kind = accel::AccelKind::TbStc;
            cold.layer = kColdLayer;
            cold.seed = deriveSeed(opt.seed, kColdStream, round) >> 12;
            const Span root("serve.exec.run_cold", OpRoot{op++});
            (void)runJson(cold);
        }
        // Sparsify decomposed into its public calls, then compared with
        // executeSparsify on the same spec.
        const SparsifySpec &sp = in.sparsify[round % in.sparsify.size()];
        const bool optimal = sp.strategy == core::kOptimalStrategy;
        serve::SparsifyResult mine;
        {
            const Span root("serve.exec.sparsify", OpRoot{op++});
            const auto shape = *serve::tryParseLayer(sp.layer, "cli.formats");
            core::Matrix w;
            {
                const Span s("workload.synthWeights");
                w = workload::synthWeights(shape, sp.seed, 4096);
            }
            core::Matrix scores;
            {
                const Span s("core.magnitudeScores");
                scores = core::magnitudeScores(w);
            }
            core::MaskRequest req;
            req.strategy = sp.strategy;
            req.sparsity = sp.sparsity;
            req.m = static_cast<size_t>(sp.m);
            auto tbs = [&] {
                const Span s(optimal ? "core.tryMakeMask.optimal"
                                     : "core.tryMakeMask");
                return core::tryMakeMask(scores, req);
            }();
            if (!tbs)
                throw std::runtime_error(tbs.error().message);
            std::vector<uint8_t> bytes;
            {
                const Span s("format.serializeDdc");
                bytes = format::serializeDdc(w, tbs->mask, tbs->meta);
            }
            {
                const Span s("util.crc32");
                mine.ddcCrc32 = util::crc32(bytes);
            }
            mine.rows = w.rows();
            mine.cols = w.cols();
            mine.nnz = tbs->mask.nnz();
            mine.ddcBytes = bytes.size();
        }
        tracer.setEnabled(false);
        out.check(serve::sparsifyResultJson(mine)
                      == e.sparsify[round % in.sparsify.size()],
                  "decomposed sparsify == executeSparsify");
    }

    // Serve-path overhead: closed-loop round trips of warm requests.
    std::string err;
    const int fd = serve::connectClient(sock, 0, err);
    if (fd < 0)
        throw std::runtime_error("connect " + sock + ": " + err);
    std::vector<double> rtt;
    for (size_t i = 0; i < 10 * in.warm.size(); ++i) {
        const size_t k = i % in.warm.size();
        const Request req = runRequest(nextId++, in.warm[k]);
        const auto t0 = Clock::now();
        const std::string body = roundTrip(fd, req);
        rtt.push_back(msSince(t0));
        out.check(body == serve::okResponse(req.id, e.warm[k]),
                  "closed-loop warm reply bytes");
    }
    ::close(fd);

    std::vector<SpanRec> spans;
    for (const SpanRec &sp : tracer.snapshot())
        if (sp.op >= kFirstOp)
            spans.push_back(sp);
    auto callMedian = [&](const std::string &name) {
        return median(durationsMs(spans, name));
    };
    // Synth, scores and greedy search are measured at layer scale by
    // llm_cold and grid_sweep; the probe adds what only serve reaches.
    out.set("serve.exec.run_warm_ms", callMedian("serve.exec.run_warm"));
    out.set("serve.exec.run_cold_ms", callMedian("serve.exec.run_cold"));
    out.set("serve.exec.sparsify_ms", callMedian("serve.exec.sparsify"));
    out.set("serve.overhead_ms", median(rtt) - median(untracedWarm));
    out.set("core.tryMakeMask.optimal_ms",
            callMedian("core.tryMakeMask.optimal"));
    out.set("format.serializeDdc_ms", callMedian("format.serializeDdc"));
    out.set("util.crc32_ms", callMedian("util.crc32"));
    out.note(strf("serve probe: %zu open-loop requests at %.0f req/s, %zu "
                  "round trips",
                  base.plans.size(), kBaseRate, rtt.size()));
    ::unlink(sock.c_str());
}

} // namespace perfbench
