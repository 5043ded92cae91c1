/**
 * @file
 * Wire protocol of the serve daemon: length-prefixed JSON frames.
 *
 * Framing: every message (either direction) is a 4-byte little-endian
 * unsigned payload length followed by exactly that many bytes of
 * UTF-8 JSON. Length 0 and lengths above the receiver's frame cap are
 * protocol errors (the connection is closed); the cap bounds per-
 * connection memory against allocation-bomb frames, mirroring the DDC
 * decoder's checked-size discipline.
 *
 * Requests (client -> server), one JSON object per frame:
 *   {"id": N, "op": "run",      ...RunSpec fields...}
 *   {"id": N, "op": "sparsify", ...SparsifySpec fields...}
 *   {"id": N, "op": "stats"}
 *   {"id": N, "op": "ping"}
 *
 * Responses (server -> client), one per request, in completion order:
 *   {"id": N, "ok": true,  "result": {...}}
 *   {"id": N, "ok": false, "error": "...", "kind": "...",
 *    "retry_after_ms": M}            // kind=="busy" only
 *
 * Full field tables live in docs/serving.md.
 */

#ifndef TBSTC_SERVE_PROTOCOL_HPP
#define TBSTC_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "exec.hpp"
#include "util/result.hpp"

namespace tbstc::serve {

/** Default per-frame payload cap (1 MiB; requests are tiny). */
constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

/**
 * Default retry_after_ms hint attached to back-pressure rejections.
 * Shared by the server (as the base hint it advertises) and the
 * loadgen client (as the fallback when a busy response somehow lacks
 * the field), so the two sides never disagree about the default.
 */
constexpr uint64_t kDefaultRetryAfterMs = 50;

/** Request operations the daemon understands. */
enum class Op : uint8_t
{
    Ping,     ///< Liveness probe; answered inline by the reader.
    Stats,    ///< Live telemetry export; answered by the batcher.
    Run,      ///< Simulate a layer/model (the `tbstc run` path).
    Sparsify, ///< Algorithm 1 + DDC serialization summary.
};

/** Machine-readable error class of a failure response. */
enum class ErrorKind : uint8_t
{
    BadRequest,       ///< Malformed JSON / unknown op / bad field.
    Busy,             ///< Queue full: back-pressure, retry later.
    ShuttingDown,     ///< Drain in progress; no new work accepted.
    Internal,         ///< Execution threw (reported, never aborts).
    RateLimited,      ///< Per-client rate/in-flight limit; retry later.
    DeadlineExceeded, ///< deadline_ms expired before execution.
    Overloaded,       ///< Connection shed at accept (conn cap).
};

/** Stable wire name of an ErrorKind ("bad_request", "busy", ...). */
const char *errorKindName(ErrorKind kind);

/** One parsed request. */
struct Request
{
    uint64_t id = 0;

    /**
     * Client-declared time budget in milliseconds, measured from the
     * moment the server accepts the request. 0 = no deadline. Work
     * whose deadline expires while queued is answered with a
     * `deadline_exceeded` error instead of executing. Excluded from
     * the batcher's dedup signature.
     */
    uint64_t deadlineMs = 0;

    Op op = Op::Ping;
    RunSpec run;           ///< Valid when op == Run.
    SparsifySpec sparsify; ///< Valid when op == Sparsify.
};

/**
 * A parse/validation failure. Carries the request id whenever the
 * document was well-formed enough to yield one, so the error response
 * still matches the client's outstanding request (id 0 otherwise).
 */
struct RequestError
{
    uint64_t id = 0;
    std::string message;
};

/**
 * Parse one request frame payload. Unknown fields are ignored
 * (forward compatibility); a missing or unknown "op", non-object
 * document, or malformed spec field is an error. The error message is
 * the "error" field of the failure response.
 */
util::Result<Request, RequestError> parseRequest(std::string_view json);

/** Serialize the request @p req as a frame payload. */
std::string serializeRequest(const Request &req);

/** Build a success response envelope around a result object/string. */
std::string okResponse(uint64_t id, const std::string &resultJson);

/** Build a failure response. retryAfterMs only applies to Busy. */
std::string errorResponse(uint64_t id, ErrorKind kind,
                          const std::string &message,
                          uint64_t retryAfterMs = 0);

/** Result payload of a Run response (csv/text are exec::formatStats). */
std::string runResultJson(const sim::RunStats &stats,
                          const std::string &label);

/** Result payload of a Sparsify response. */
std::string sparsifyResultJson(const SparsifyResult &r);

/**
 * Frame I/O over a connected socket. Partial reads/writes are
 * retried; EINTR is transparent. write uses MSG_NOSIGNAL so a
 * vanished peer surfaces as an error return, not SIGPIPE.
 */
enum class FrameStatus : uint8_t
{
    Ok,
    Eof,     ///< Orderly close before a length prefix.
    TooBig,  ///< Length prefix above the cap (protocol error).
    Error,   ///< Socket error or mid-frame disconnect.
    Timeout, ///< Idle or per-frame deadline expired (deadline reads).
};

/** Read one frame payload into @p out (blocks indefinitely). */
FrameStatus readFrame(int fd, std::string &out,
                      size_t maxBytes = kDefaultMaxFrameBytes);

/** Write one frame; false on any socket error. */
bool writeFrame(int fd, std::string_view payload);

/**
 * Deadlines for one readFrameDeadline call, both in milliseconds and
 * both disabled by 0: idleMs bounds the wait for a frame's *first*
 * byte (reaps half-open and idle connections); frameMs bounds the
 * time from that first byte to frame completion (reaps slow-loris
 * writers that trickle one byte at a time).
 */
struct FrameTimeouts
{
    uint64_t idleMs = 0;
    uint64_t frameMs = 0;
};

/**
 * Read one frame like readFrame, but poll-based: returns Timeout when
 * a FrameTimeouts deadline expires instead of blocking forever. Works
 * on blocking and non-blocking sockets alike (recv is issued with
 * MSG_DONTWAIT and waits happen in poll).
 */
FrameStatus readFrameDeadline(int fd, std::string &out, size_t maxBytes,
                              const FrameTimeouts &t);

/**
 * Write one frame with a completion deadline (0 = wait forever).
 * false on socket error or when the peer does not drain the frame in
 * time — a slow-reading client cannot pin the writer.
 */
bool writeFrameDeadline(int fd, std::string_view payload,
                        uint64_t timeoutMs);

/**
 * Connect a client socket to a daemon: @p socketPath when non-empty,
 * otherwise TCP to 127.0.0.1:@p port. Returns the fd, or -1 with a
 * human-readable message in @p err. Shared by loadgen, the protocol
 * fuzzer, and tests.
 */
int connectClient(const std::string &socketPath, uint16_t port,
                  std::string &err);

} // namespace tbstc::serve

#endif // TBSTC_SERVE_PROTOCOL_HPP
