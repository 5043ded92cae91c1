/**
 * @file
 * Adversarial protocol fuzzing of the serve daemon, in-process: the
 * seeded fuzzer (serve/fuzz.hpp) drives >= 1000 corrupted frames
 * across the three probe geometries against a live Server and the
 * test asserts the robustness contract — the daemon never dies,
 * never leaks a connection or fd, and keeps answering well-formed
 * requests with clean-connection bytes. Runs under TSan in CI's
 * serve-smoke job (Serve* filter) and under ASan+UBSan via the
 * sanitizer job's ServeFuzz* filter.
 */

#include <gtest/gtest.h>

#include <string>

#include <dirent.h>
#include <unistd.h>

#include "obs/json.hpp"
#include "serve/fuzz.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace tbstc;
using namespace tbstc::serve;
using obs::parseJson;

/** Open descriptors of this process (the fuzz leak budget). */
size_t
openFdCount()
{
    DIR *d = ::opendir("/proc/self/fd");
    if (d == nullptr)
        return 0;
    size_t n = 0;
    while (::readdir(d) != nullptr)
        ++n;
    ::closedir(d);
    return n;
}

/** One clean ping proving the daemon still serves. */
bool
daemonAnswersPing(const std::string &socketPath, uint16_t port)
{
    std::string err;
    const int fd = connectClient(socketPath, port, err);
    if (fd < 0)
        return false;
    Request ping;
    ping.id = 99;
    ping.op = Op::Ping;
    std::string frame;
    const bool ok = writeFrame(fd, serializeRequest(ping))
        && readFrameDeadline(fd, frame, kDefaultMaxFrameBytes,
                             {5000, 5000})
            == FrameStatus::Ok;
    ::close(fd);
    if (!ok)
        return false;
    const auto doc = parseJson(frame);
    return doc.ok() && doc->get("ok").asBool(false);
}

TEST(ServeFuzz, ThousandMutatedFramesNeverAbortOrLeak)
{
    const size_t fdsBefore = openFdCount();
    {
        ServerOptions opts;
        Server server(opts);
        const auto started = server.start();
        ASSERT_TRUE(started.ok()) << started.error();

        FuzzOptions fopts;
        fopts.port = *started;
        fopts.seed = 7;
        fopts.sessions = 125;
        fopts.framesPerSession = 8;
        const auto stats = runProtocolFuzz(fopts);
        ASSERT_TRUE(stats.ok()) << stats.error();

        // The acceptance bar: >= 1000 corrupted frames delivered.
        EXPECT_GE(stats->mutatedFrames, 1000u);
        EXPECT_EQ(stats->sessions, 125u);

        // Every end-of-session probe (3 geometries per session) was
        // answered with the clean-connection reference bytes.
        EXPECT_EQ(stats->probes, 3u * stats->sessions);
        EXPECT_EQ(stats->probeMismatches, 0u);

        // Framing-safe corruption was actually answered, and desync
        // corruption actually forced reconnects — the campaign
        // exercised both classes.
        EXPECT_GT(stats->responses, 0u);
        EXPECT_GT(stats->reconnects, 0u);

        // The daemon is still fully alive for a fresh client.
        EXPECT_TRUE(daemonAnswersPing("", *started));

        server.beginShutdown();
        server.wait();

        // The corruption showed up in the typed counters, not in
        // crashes: every reader thread exited and was joined.
        const ServerCounters c = server.counters();
        EXPECT_GT(c.badRequests + c.badFrames, 0u);
    }
    // All sockets (listen, wake pipe, every connection) are closed:
    // no fd leaked per mutated frame or per reaped connection.
    EXPECT_LE(openFdCount(), fdsBefore + 2);
}

TEST(ServeFuzz, UnixSocketPathSurvivesTheSameCampaign)
{
    const std::string path = "/tmp/tbstc_fuzz_test.sock";
    ServerOptions opts;
    opts.socketPath = path;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    FuzzOptions fopts;
    fopts.socketPath = path;
    fopts.seed = 11;
    fopts.sessions = 25;
    fopts.framesPerSession = 8;
    const auto stats = runProtocolFuzz(fopts);
    ASSERT_TRUE(stats.ok()) << stats.error();
    EXPECT_EQ(stats->probeMismatches, 0u);
    EXPECT_TRUE(daemonAnswersPing(path, 0));

    server.beginShutdown();
    server.wait();
}

} // namespace
