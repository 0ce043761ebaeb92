#ifndef HATT_IO_SERVER_HPP
#define HATT_IO_SERVER_HPP

/**
 * @file
 * `hattd`: the long-lived compilation daemon. A single-process poll()
 * event loop accepts TCP connections carrying newline-delimited JSON
 * frames — `hatt-compile-request` v1 envelopes and the control verbs
 * `{"op":"ping"}`, `{"op":"stats"}`, `{"op":"shutdown"}` — dispatches
 * them through ONE shared CompilationService (whose in-memory
 * TieredMappingStore stays warm across requests and clients), and
 * replies with `hatt-compile-response` / `hatt-status` / `hatt-stats`
 * frames. The normative wire spec lives in docs/PROTOCOL.md; running
 * and operating the daemon is documented in docs/OPERATIONS.md.
 *
 * Design constraints, in order:
 *  1. Determinism: a request is compiled by the same service call the
 *     `hattc` CLI makes, so responses and emitted artifacts are
 *     byte-identical to one-shot runs (modulo the volatile fields
 *     docs/PROTOCOL.md names) for every HATT_THREADS.
 *  2. Untrusted traffic cannot wedge or crash the loop: frames are
 *     capped (`maxFrameBytes`), partial frames time out
 *     (`frameTimeoutSeconds`, the slow-loris guard), request parse
 *     caps/deadlines ride on every compile, malformed input yields a
 *     `hatt-status` error frame — never an exception out of run().
 *  3. One compilation at a time: frames are processed synchronously on
 *     the loop thread, each fanning out over the work pool under a
 *     ScopedParallelThreads admission gate (`jobsCap` clamping the
 *     request's own `jobs` hint), so a burst of clients queues at the
 *     socket instead of oversubscribing the machine.
 *
 * Failure injection: the loop queries the `net.accept` / `net.read` /
 * `net.write` points of the HATT_FAULTS registry at the matching
 * syscall sites; an armed fault models the syscall failing (both
 * actions — sockets do not throw), exercising the connection-teardown
 * paths deterministically.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/limits.hpp"
#include "io/service.hpp"
#include "mapping/mapper.hpp"

namespace hatt::io {

/** Construction knobs for a Server (see docs/OPERATIONS.md). */
struct ServerConfig
{
    /** Listen address; loopback by default — hattd trusts its peers
        with server-side file reads, so exposure is opt-in. */
    std::string host = "127.0.0.1";

    /** Listen port; 0 binds an ephemeral port (read it back from
        port() after bind()). */
    uint16_t port = 0;

    /** Durable cache directory for the service's disk tier; empty =
        memory tier only (still warm across requests). */
    std::string cacheDir;

    /** Artifact root: every request's `out_dir` must be relative,
        `..`-free, and resolves beneath this directory. */
    std::string outRoot = "out";

    /** Hard cap on one frame's bytes (request line incl. newline). An
        over-cap frame earns a `hatt-status` error and a close. */
    size_t maxFrameBytes = 1u << 20;

    /** Accepted-connection cap; excess connections are closed at
        accept time. */
    size_t maxConnections = 64;

    /** Slow-loris guard: a connection holding a partial frame longer
        than this is sent a deadline_exceeded status and closed. Also
        bounds the shutdown drain. 0 disables (tests only). */
    double frameTimeoutSeconds = 30.0;

    /** Clamp on per-request `jobs` (worker-cap hint): the effective
        cap is min(request, jobsCap), or jobsCap when the request
        leaves it 0. 0 = no server-side clamp. */
    unsigned jobsCap = 0;

    /** Server-side parse guards applied to every request: a request's
        own max_terms/max_modes tighten these, never loosen them. */
    ParseLimits limits;

    /** Server-side compile budget (seconds) applied the same way to
        every request's timeout_seconds. 0 = no server-side budget. */
    double timeoutSeconds = 0.0;
};

/**
 * The daemon's engine, embeddable for tests: bind(), then run() on a
 * dedicated thread; requestStop() (async-signal-safe — what hattd's
 * SIGTERM/SIGINT handler calls) or a client's `{"op":"shutdown"}`
 * makes run() drain in-flight responses, flush the cache index and the
 * trace buffer, and return.
 */
class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Create, bind and listen the socket (and the internal wake pipe).
        On success port() is the bound port. */
    Status bind();

    /** The bound listen port (after a successful bind()). */
    uint16_t port() const { return port_; }

    /**
     * The event loop: serves until a shutdown request, then drains.
     * Never throws; a frame's failure is that frame's `hatt-status`
     * response. @return 0 on clean shutdown, non-zero only when called
     * unbound or the loop's own machinery fails.
     */
    int run();

    /** Request a graceful stop (async-signal-safe: one atomic store
        and one write() on the wake pipe). */
    void requestStop();

    /**
     * Answer one request line exactly as run() does for a received
     * frame: the reply frame, without the trailing newline. Callable
     * without bind() — the in-process path tests feed frames through.
     */
    std::string handleFrame(const std::string &line);

  private:
    struct Connection;

    void acceptClients();
    /** Read as much as the socket has; frame, dispatch, queue replies.
        @return false when the connection is finished (EOF/error). */
    bool serviceInput(Connection &conn);
    /** Flush the pending write buffer. @return false on a dead peer. */
    bool flushOutput(Connection &conn);
    void queueFrame(Connection &conn, const std::string &payload);
    std::string handleCompile(const JsonValue &doc);
    void beginDrain();

    ServerConfig config_;
    CompilationService service_;
    int listenFd_ = -1;
    int wakeReadFd_ = -1;
    int wakeWriteFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stopRequested_{false};
    bool draining_ = false;
    double drainDeadlineUs_ = 0.0;
    std::vector<std::unique_ptr<Connection>> conns_;
};

} // namespace hatt::io

#endif // HATT_IO_SERVER_HPP
