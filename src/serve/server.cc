#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>

#include "common/obs.h"

namespace hwpr::serve
{

namespace
{

/** Latency bucket bounds (microseconds) shared by every endpoint
 *  histogram: 100us .. 1s, roughly 2.5x steps. */
const std::vector<double> &
latencyBounds()
{
    static const std::vector<double> bounds = {
        100.0,    250.0,    500.0,    1000.0,   2500.0,  5000.0,
        10000.0,  25000.0,  50000.0,  100000.0, 250000.0, 1000000.0};
    return bounds;
}

obs::Histogram &
latencyHistogram(const char *op)
{
    return obs::Registry::global().histogram(
        std::string("serve.") + op + ".us", latencyBounds());
}

/** Hot-path handles resolved once: predict/rank run per request, so
 *  per-call registry lookups (string build + map find) would tax the
 *  request-at-a-time baseline and the batched path alike. */
obs::Histogram &
predictLatency()
{
    static obs::Histogram &h = latencyHistogram("predict");
    return h;
}

obs::Histogram &
rankLatency()
{
    static obs::Histogram &h = latencyHistogram("rank");
    return h;
}

void
countRequest(const char *op)
{
    obs::Registry::global()
        .counter(std::string("serve.requests.") + op)
        .add();
}

obs::Counter &
predictRequests()
{
    static obs::Counter &c =
        obs::Registry::global().counter("serve.requests.predict");
    return c;
}

obs::Counter &
rankRequests()
{
    static obs::Counter &c =
        obs::Registry::global().counter("serve.requests.rank");
    return c;
}

void
countError()
{
    static obs::Counter &errors =
        obs::Registry::global().counter("serve.errors");
    errors.add();
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string
jobStatusJson(const JobStatus &st)
{
    std::string out = "{\"id\": " + jsonQuote(st.spec.id) +
                      ", \"state\": " + jsonQuote(st.state) +
                      ", \"generations_done\": " +
                      std::to_string(st.generationsDone) +
                      ", \"generations\": " +
                      std::to_string(st.spec.generations);
    if (!st.error.empty())
        out += ", \"error\": " + jsonQuote(st.error);
    out += "}";
    return out;
}

} // namespace

Server::Server(const core::Surrogate &model, ServerConfig cfg)
    : model_(model), cfg_(std::move(cfg))
{
}

Server::~Server()
{
    for (auto &[fd, conn] : conns_)
        ::close(fd);
    conns_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (wakeRead_ >= 0)
        ::close(wakeRead_);
    if (wakeWrite_ >= 0)
        ::close(wakeWrite_);
}

bool
Server::start(std::string &err)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        err = "socket: " + std::string(std::strerror(errno));
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(cfg_.port));
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) !=
        1) {
        err = "bad host '" + cfg_.host + "'";
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        err = "bind: " + std::string(std::strerror(errno));
        return false;
    }
    if (::listen(listenFd_, 128) != 0) {
        err = "listen: " + std::string(std::strerror(errno));
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);
    setNonBlocking(listenFd_);

    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        err = "pipe: " + std::string(std::strerror(errno));
        return false;
    }
    wakeRead_ = pipefd[0];
    wakeWrite_ = pipefd[1];
    setNonBlocking(wakeRead_);
    setNonBlocking(wakeWrite_);

    if (!cfg_.jobsDir.empty()) {
        jobs_ = std::make_unique<JobManager>(model_, cfg_.jobsDir);
        const std::size_t resumed = jobs_->recover();
        if (resumed > 0)
            obs::Registry::global()
                .counter("serve.jobs.resumed")
                .add(resumed);
        jobs_->start();
    }
    return true;
}

void
Server::requestStop()
{
    // Async-signal-safe: atomic store + pipe write only.
    stop_.store(true, std::memory_order_relaxed);
    if (wakeWrite_ >= 0) {
        const char b = 'x';
        [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &b, 1);
    }
}

std::size_t
Server::pendingJobs() const
{
    return jobs_ ? jobs_->pending() : 0;
}

long
Server::pollTimeoutMs() const
{
    if (stop_.load(std::memory_order_relaxed))
        return 0;
    // Non-empty queues poll without blocking: either more requests
    // are already readable (they join the batch) or the stream has
    // gone quiet and flushDue() fires the batch immediately.
    if (queue_.empty())
        return 50; // idle tick
    return 0;
}

void
Server::updateQueueGauges()
{
    static obs::Gauge &depth =
        obs::Registry::global().gauge("serve.queue_depth");
    static obs::Gauge &connections =
        obs::Registry::global().gauge("serve.connections");
    depth.set(double(queuedRows_));
    connections.set(double(conns_.size()));
}

void
Server::run()
{
    std::vector<pollfd> fds;
    while (!stop_.load(std::memory_order_relaxed)) {
        fds.clear();
        fds.push_back({wakeRead_, POLLIN, 0});
        fds.push_back({listenFd_, POLLIN, 0});
        for (auto &[fd, conn] : conns_) {
            short ev = POLLIN;
            if (conn.out.size() > conn.outOff)
                ev |= POLLOUT;
            fds.push_back({fd, ev, 0});
        }
        ::poll(fds.data(), nfds_t(fds.size()),
               int(pollTimeoutMs()));

        if ((fds[0].revents & POLLIN) != 0) {
            char buf[64];
            while (::read(wakeRead_, buf, sizeof(buf)) > 0) {
            }
        }
        if ((fds[1].revents & POLLIN) != 0)
            acceptPending();

        std::vector<int> dead;
        bool readActivity = false;
        for (std::size_t i = 2; i < fds.size(); ++i) {
            const auto it = conns_.find(fds[i].fd);
            if (it == conns_.end())
                continue;
            if ((fds[i].revents & POLLIN) != 0)
                readActivity = true;
            if ((fds[i].revents &
                 (POLLIN | POLLHUP | POLLERR | POLLOUT)) != 0 &&
                !pumpConn(it->second))
                dead.push_back(fds[i].fd);
        }
        for (const int fd : dead)
            closeConn(fd);

        // Natural batching: a quiet poll (no readable connection)
        // means nothing else can join the batch right now, so waiting
        // out the deadline would only add latency. The deadline still
        // bounds the wait when the stream never goes quiet.
        flushDue(false, !readActivity);

        // Opportunistic write pass: answers generated this iteration
        // go out now instead of waiting for the next POLLOUT wake.
        dead.clear();
        for (auto &[fd, conn] : conns_)
            if (conn.out.size() > conn.outOff && !pumpConn(conn))
                dead.push_back(fd);
        for (const int fd : dead)
            closeConn(fd);
        updateQueueGauges();
    }

    // Drain: answer everything queued, then push the bytes out
    // best-effort before closing (bounded, so a wedged peer cannot
    // hold shutdown hostage).
    flushDue(true);
    const double drain_start = obs::nowMicros();
    while (obs::nowMicros() - drain_start < 2e6) {
        bool pending = false;
        std::vector<int> dead;
        for (auto &[fd, conn] : conns_) {
            if (conn.out.size() <= conn.outOff)
                continue;
            if (!pumpConn(conn))
                dead.push_back(fd);
            else if (conn.out.size() > conn.outOff)
                pending = true;
        }
        for (const int fd : dead)
            closeConn(fd);
        if (!pending)
            break;
        pollfd pf{-1, 0, 0};
        ::poll(&pf, 0, 5);
    }
    for (auto &[fd, conn] : conns_)
        ::close(fd);
    conns_.clear();
    if (jobs_)
        jobs_->stop(); // finishes the in-flight slice, checkpoints
}

void
Server::acceptPending()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;
        if (conns_.size() >= cfg_.maxConnections) {
            ::close(fd);
            continue;
        }
        setNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        conns_[fd].fd = fd;
    }
}

bool
Server::pumpConn(Conn &conn)
{
    // Write side first: flush as much buffered output as the socket
    // accepts.
    while (conn.out.size() > conn.outOff) {
        const ssize_t n =
            ::write(conn.fd, conn.out.data() + conn.outOff,
                    conn.out.size() - conn.outOff);
        if (n > 0) {
            conn.outOff += std::size_t(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    if (conn.outOff == conn.out.size() && conn.outOff > 0) {
        conn.out.clear();
        conn.outOff = 0;
    }

    // Read side: pull whatever is available, dispatch every complete
    // frame.
    while (true) {
        char buf[65536];
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
            conn.reader.feed(buf, std::size_t(n));
            continue;
        }
        if (n == 0)
            return false; // peer closed
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        return false;
    }
    std::string payload;
    while (conn.reader.next(payload))
        handleFrame(conn, payload);
    return !conn.reader.poisoned();
}

void
Server::closeConn(int fd)
{
    const auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    ::close(fd);
    conns_.erase(it);
}

void
Server::respond(int connFd, const std::string &payload)
{
    const auto it = conns_.find(connFd);
    if (it == conns_.end())
        return; // peer vanished while its batch was in flight
    it->second.out += encodeFrame(payload);
}

void
Server::handleFrame(Conn &conn, const std::string &payload)
{
    const double t0 = obs::nowMicros();
    json::Value req;
    try {
        req = json::parse(payload);
    } catch (const std::exception &e) {
        countError();
        respond(conn.fd, errorResponse(
                             std::string("bad json: ") + e.what()));
        return;
    }
    const std::string op = req.stringOr("op", "");
    const std::string idTok = requestIdToken(req);
    const std::string idField =
        idTok.empty() ? std::string() : ", \"id\": " + idTok;

    if (op == "predict" || op == "rank") {
        (op == "rank" ? rankRequests() : predictRequests()).add();
        std::vector<nasbench::Architecture> archs;
        std::string err;
        if (!parseArchs(req, archs, err)) {
            countError();
            respond(conn.fd, errorResponse(err, idTok));
            return;
        }
        Pending p;
        p.connFd = conn.fd;
        p.idTok = idTok;
        p.archs = std::move(archs);
        p.enqueuedUs = t0;
        p.rank = op == "rank";
        queuedRows_ += p.archs.size();
        queue_.push_back(std::move(p));
        return; // answered by the next flush
    }
    if (op == "ping") {
        countRequest("ping");
        respond(conn.fd,
                "{\"ok\": true, \"op\": \"ping\"" + idField + "}");
        latencyHistogram("ping").record(obs::nowMicros() - t0);
        return;
    }
    if (op == "stats") {
        countRequest("stats");
        std::string out = "{\"ok\": true, \"op\": \"stats\"" +
                          idField + ", \"queue_depth\": " +
                          std::to_string(queuedRows_) +
                          ", \"connections\": " +
                          std::to_string(conns_.size());
        out += ", \"jobs\": [";
        if (jobs_) {
            const auto list = jobs_->list();
            for (std::size_t i = 0; i < list.size(); ++i) {
                if (i != 0)
                    out += ", ";
                out += jobStatusJson(list[i]);
            }
        }
        out += "], \"stats\": ";
        out += obs::Registry::global().snapshotJson();
        out += "}";
        respond(conn.fd, out);
        latencyHistogram("stats").record(obs::nowMicros() - t0);
        return;
    }
    if (op == "search") {
        countRequest("search");
        if (!jobs_) {
            countError();
            respond(conn.fd,
                    errorResponse("jobs disabled (no --jobs-dir)",
                                  idTok));
            return;
        }
        JobSpec spec;
        spec.id = req.stringOr("job", req.stringOr("id", ""));
        spec.population =
            std::size_t(req.numberOr("population", 32.0));
        spec.generations =
            std::size_t(req.numberOr("generations", 8.0));
        spec.seed = std::uint64_t(req.numberOr("seed", 1.0));
        spec.space = req.stringOr("space", "union");
        std::string err;
        if (!jobs_->submit(spec, err)) {
            countError();
            respond(conn.fd, errorResponse(err, idTok));
            return;
        }
        respond(conn.fd, "{\"ok\": true, \"op\": \"search\"" +
                             idField + ", \"job\": " +
                             jsonQuote(spec.id) +
                             ", \"state\": \"queued\"}");
        latencyHistogram("search").record(obs::nowMicros() - t0);
        return;
    }
    if (op == "job") {
        countRequest("job");
        JobStatus st;
        const std::string id = req.stringOr("job", "");
        if (!jobs_ || !jobs_->status(id, st)) {
            countError();
            respond(conn.fd,
                    errorResponse("unknown job '" + id + "'", idTok));
            return;
        }
        std::string out = "{\"ok\": true, \"op\": \"job\"" + idField +
                          ", \"status\": " + jobStatusJson(st);
        if (st.state == "done") {
            std::ifstream in(jobs_->resultPath(id));
            if (in) {
                std::string body(
                    (std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
                out += ", \"result\": " + body;
            }
        }
        out += "}";
        respond(conn.fd, out);
        return;
    }
    if (op == "jobs") {
        countRequest("jobs");
        std::string out =
            "{\"ok\": true, \"op\": \"jobs\"" + idField +
            ", \"jobs\": [";
        if (jobs_) {
            const auto list = jobs_->list();
            for (std::size_t i = 0; i < list.size(); ++i) {
                if (i != 0)
                    out += ", ";
                out += jobStatusJson(list[i]);
            }
        }
        out += "]}";
        respond(conn.fd, out);
        return;
    }
    if (op == "shutdown") {
        countRequest("shutdown");
        respond(conn.fd,
                "{\"ok\": true, \"op\": \"shutdown\"" + idField + "}");
        requestStop();
        return;
    }
    countError();
    respond(conn.fd, errorResponse("unknown op '" + op + "'", idTok));
}

void
Server::flushDue(bool force, bool quiet)
{
    const auto due = [&] {
        if (queue_.empty())
            return force; // empty flush: well-defined no-op upstream
        if (force || quiet || queuedRows_ >= cfg_.batchMaxArchs)
            return true;
        double oldest = queue_.front().enqueuedUs;
        for (const Pending &p : queue_)
            oldest = std::min(oldest, p.enqueuedUs);
        return obs::nowMicros() - oldest >=
               double(cfg_.batchDeadlineUs);
    };
    if (due())
        flushQueue();
}

void
Server::flushQueue()
{
    // Coalesce queued requests into fused batch calls, never letting
    // one batch exceed batchMaxArchs (a request larger than the cap
    // still runs whole — requests are never split). batchMaxArchs=1
    // therefore degenerates to request-at-a-time, the bench baseline.
    // The empty case still goes through the plan — it is the
    // satellite no-op contract the deadline path depends on.
    std::size_t begin = 0;
    while (begin < queue_.size() || (begin == 0 && queue_.empty())) {
        std::size_t end = begin, rows = 0;
        while (end < queue_.size() &&
               (end == begin ||
                rows + queue_[end].archs.size() <=
                    cfg_.batchMaxArchs)) {
            rows += queue_[end].archs.size();
            ++end;
        }
        flushGroup(begin, end);
        if (queue_.empty())
            break;
        begin = end;
    }
    queue_.clear();
    queuedRows_ = 0;
}

void
Server::flushGroup(std::size_t begin, std::size_t end)
{
    std::vector<nasbench::Architecture> batch;
    std::size_t rows = 0;
    for (std::size_t i = begin; i < end; ++i)
        rows += queue_[i].archs.size();
    batch.reserve(rows);
    for (std::size_t i = begin; i < end; ++i)
        batch.insert(batch.end(), queue_[i].archs.begin(),
                     queue_[i].archs.end());

    const Matrix &pred = model_.predictBatch(batch, plan_);

    static obs::Counter &batches =
        obs::Registry::global().counter("serve.batches");
    static obs::Counter &batchRows =
        obs::Registry::global().counter("serve.batch_rows");
    batches.add();
    batchRows.add(rows);

    const double now = obs::nowMicros();
    std::size_t row = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const Pending &p = queue_[i];
        std::string out = "{\"ok\": true, \"op\": \"";
        out += p.rank ? "rank" : "predict";
        out += "\"";
        if (!p.idTok.empty())
            out += ", \"id\": " + p.idTok;
        out += ", \"predictions\": [";
        for (std::size_t a = 0; a < p.archs.size(); ++a, ++row) {
            if (a != 0)
                out += ", ";
            out += "[";
            for (std::size_t c = 0; c < pred.cols(); ++c) {
                if (c != 0)
                    out += ", ";
                out += jsonNumber(pred(row, c));
            }
            out += "]";
        }
        out += "]}";
        respond(p.connFd, out);
        (p.rank ? rankLatency() : predictLatency())
            .record(now - p.enqueuedUs);
    }
}

namespace
{

/** Target of the process-wide stop handlers. An atomic pointer, not a
 *  bare global: installStopSignalHandlers runs on the main thread
 *  while a signal can land on any thread. */
std::atomic<Server *> g_signalServer{nullptr};

void
onStopSignal(int)
{
    Server *s = g_signalServer.load(std::memory_order_relaxed);
    if (s != nullptr)
        s->requestStop(); // async-signal-safe by contract
}

} // namespace

void
installStopSignalHandlers(Server &server)
{
    g_signalServer.store(&server, std::memory_order_relaxed);

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: a stop signal must interrupt blocking syscalls
    // (EINTR) so the loop notices the stop flag now, not after the
    // kernel transparently restarts a blocked read/write.
    sa.sa_flags = 0;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    struct sigaction ign;
    std::memset(&ign, 0, sizeof(ign));
    ign.sa_handler = SIG_IGN;
    sigemptyset(&ign.sa_mask);
    ::sigaction(SIGPIPE, &ign, nullptr);
}

void
clearStopSignalHandlers()
{
    g_signalServer.store(nullptr, std::memory_order_relaxed);

    struct sigaction dfl;
    std::memset(&dfl, 0, sizeof(dfl));
    dfl.sa_handler = SIG_DFL;
    sigemptyset(&dfl.sa_mask);
    ::sigaction(SIGTERM, &dfl, nullptr);
    ::sigaction(SIGINT, &dfl, nullptr);
    ::sigaction(SIGPIPE, &dfl, nullptr);
}

} // namespace hwpr::serve
