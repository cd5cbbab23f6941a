/**
 * @file
 * hwpr-serve event loop (see DESIGN.md "Serving & micro-batching").
 *
 * A single-threaded poll() loop owns every connection and one
 * micro-batch queue. `rank` is an alias of `predict` (one exact
 * prediction path), so both ops share the queue. Requests coalesce
 * until the queued row count reaches batchMaxArchs, the oldest queued
 * request is batchDeadlineUs old, or a poll() finds no readable
 * connection (natural batching: nothing else can join the batch right
 * now, so waiting would only add latency) — whichever comes first —
 * then fused predictBatch calls of at most batchMaxArchs rows answer
 * all of them; the per-request responses are sliced back out row by
 * row, each tagged with the op it asked for. Coalescing never changes
 * answers: batched predictions are bitwise independent
 * of batch composition (the batched-vs-scalar property enforced by
 * tests/prop), so the batching degree is a latency/throughput knob,
 * not a semantics knob.
 *
 * Search jobs run on the JobManager worker thread; the pool fans both
 * the loop's flushes and the worker's evaluations out safely
 * (ThreadPool supports concurrent top-level callers).
 *
 * Shutdown (requestStop(), or a "shutdown" op): the loop stops
 * accepting, flushes the queue regardless of deadline, drains
 * outbound buffers best-effort, stops the job worker at its current
 * slice boundary (checkpoint already on disk), and returns from
 * run(). requestStop() is async-signal-safe — an atomic store plus a
 * self-pipe write — so SIGTERM handlers may call it directly.
 */

#ifndef HWPR_SERVE_SERVER_H
#define HWPR_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_plan.h"
#include "core/surrogate.h"
#include "serve/jobs.h"
#include "serve/proto.h"

namespace hwpr::serve
{

struct ServerConfig
{
    std::string host = "127.0.0.1";
    int port = 0; ///< 0 = ephemeral; see Server::port() after start()
    /** Micro-batch flush triggers: rows queued, age of the oldest
     *  queued request. deadline 0 = flush every loop iteration
     *  (request-at-a-time; the bench baseline). */
    std::size_t batchMaxArchs = 256;
    long batchDeadlineUs = 1000;
    /** Directory for resumable search jobs; empty disables the
     *  "search" op. */
    std::string jobsDir;
    std::size_t maxConnections = 256;
};

class Server
{
  public:
    Server(const core::Surrogate &model, ServerConfig cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen (+ job recovery); false sets @p err. */
    bool start(std::string &err);

    /** Bound port (after start()). */
    int port() const { return port_; }

    /** Blocks until requestStop() or a "shutdown" op, then drains. */
    void run();

    /** Async-signal-safe stop request. */
    void requestStop();

    /** Jobs queued or running (empty when fully drained). */
    std::size_t pendingJobs() const;

    const ServerConfig &config() const { return cfg_; }

  private:
    struct Conn
    {
        int fd = -1;
        FrameReader reader;
        std::string out;
        std::size_t outOff = 0;
    };

    /** One queued predict/rank request awaiting a batch flush. */
    struct Pending
    {
        int connFd = -1;
        std::string idTok;
        std::vector<nasbench::Architecture> archs;
        double enqueuedUs = 0.0;
        /** Asked as "rank": sets the reply's op and latency series. */
        bool rank = false;
    };

    void handleFrame(Conn &conn, const std::string &payload);
    void respond(int connFd, const std::string &payload);
    void flushQueue();
    void flushGroup(std::size_t begin, std::size_t end);
    void flushDue(bool force, bool quiet = false);
    long pollTimeoutMs() const;
    void acceptPending();
    bool pumpConn(Conn &conn); ///< false: close the connection
    void closeConn(int fd);
    void updateQueueGauges();

    const core::Surrogate &model_;
    ServerConfig cfg_;
    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    int port_ = 0;
    std::atomic<bool> stop_{false};
    std::map<int, Conn> conns_;
    std::vector<Pending> queue_;
    std::size_t queuedRows_ = 0;
    core::BatchPlan plan_;
    std::unique_ptr<JobManager> jobs_;
};

/**
 * Point SIGTERM and SIGINT at @p server.requestStop() via sigaction
 * and ignore SIGPIPE. Deliberately installed WITHOUT SA_RESTART so a
 * signal landing during a blocking syscall interrupts it with EINTR
 * and the event loop's stop check runs immediately — std::signal's
 * restart and reset-to-default semantics are implementation-defined
 * (glibc's signal() implies SA_RESTART; SysV semantics would even
 * uninstall the handler after one delivery), which is exactly the
 * ambiguity that made the previous std::signal-based wiring
 * unreliable. The handler itself only calls requestStop(), which is
 * async-signal-safe (atomic store + self-pipe write).
 */
void installStopSignalHandlers(Server &server);

/**
 * Restore SIGTERM/SIGINT/SIGPIPE to their default dispositions and
 * detach the server pointer. For tests that install handlers against
 * a short-lived Server on the stack.
 */
void clearStopSignalHandlers();

} // namespace hwpr::serve

#endif // HWPR_SERVE_SERVER_H
