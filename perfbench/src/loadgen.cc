#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/obs.h"
#include "common/rng.h"
#include "serve/proto.h"

namespace perfbench
{

namespace
{

struct Conn
{
    int fd = -1;
    std::string out;
    std::size_t outOff = 0;
    hwpr::serve::FrameReader reader;
    bool dead = false;
};

int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    return fd;
}

/** Write what the socket takes now; false when the peer is gone. */
bool
flushOut(Conn &c)
{
    while (c.outOff < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.outOff,
                                 c.out.size() - c.outOff, MSG_NOSIGNAL);
        if (n > 0) {
            c.outOff += std::size_t(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    c.out.clear();
    c.outOff = 0;
    return true;
}

/** The numeric "id" of an answer, or -1. */
long
answerId(const std::string &payload)
{
    const std::size_t at = payload.find("\"id\": ");
    if (at == std::string::npos)
        return -1;
    char *end = nullptr;
    const char *start = payload.c_str() + at + 6;
    const long id = std::strtol(start, &end, 10);
    return end == start ? -1 : id;
}

} // namespace

OpenLoopResult
runOpenLoop(int port, const std::vector<ServeRequest> &requests,
            std::size_t begin, std::size_t count, double qps,
            std::uint64_t arrivalSeed, std::size_t connections,
            const std::vector<bool> &keep, double graceSec)
{
    OpenLoopResult res;
    res.offeredQps = qps;
    res.sent = count;
    res.latencyUs.assign(count, kFailedLatencyUs);
    res.lagUs.assign(count, 0.0);
    res.kept.resize(count);
    std::vector<char> done(count, 0);

    std::vector<Conn> conns(connections);
    for (Conn &c : conns) {
        c.fd = connectLoopback(port);
        c.dead = c.fd < 0;
    }

    // Poisson arrivals: exponential gaps with mean 1/qps.
    std::vector<double> due(count);
    {
        hwpr::Rng rng(arrivalSeed);
        double t = 0.0;
        for (std::size_t i = 0; i < count; ++i) {
            t += -std::log(1.0 - rng.uniform()) * 1e6 / qps;
            due[i] = t;
        }
    }
    const double start = hwpr::obs::nowMicros() + 1000.0;
    for (double &d : due)
        d += start;
    const double deadline =
        (count ? due.back() : start) + graceSec * 1e6;

    std::vector<pollfd> pfds(conns.size());
    std::size_t next = 0, settled = 0;
    char buf[1 << 16];
    while (settled < count) {
        double now = hwpr::obs::nowMicros();
        while (next < count && due[next] <= now) {
            Conn &c = conns[next % conns.size()];
            if (c.dead) {
                ++settled; // failed: its latency stays kFailedLatencyUs
                done[next] = 1;
            } else {
                c.out += hwpr::serve::encodeFrame(
                    requests[begin + next].body);
                res.lagUs[next] = now - due[next];
                if (!flushOut(c))
                    c.dead = true;
            }
            ++next;
            now = hwpr::obs::nowMicros();
        }
        if (now > deadline)
            break;

        for (std::size_t i = 0; i < conns.size(); ++i) {
            pfds[i].fd = conns[i].dead ? -1 : conns[i].fd;
            pfds[i].events = POLLIN;
            if (conns[i].outOff < conns[i].out.size())
                pfds[i].events |= POLLOUT;
            pfds[i].revents = 0;
        }
        // Spin (zero timeout) rather than sleep: waking a parked
        // thread can take milliseconds on a virtual machine, which
        // would show up as generator lateness and as latency the
        // server did not cause.
        const int ready = ::poll(pfds.data(), pfds.size(), 0);
        if (ready <= 0)
            continue;
        for (std::size_t i = 0; i < conns.size(); ++i) {
            Conn &c = conns[i];
            if (c.dead || pfds[i].revents == 0)
                continue;
            if ((pfds[i].revents & POLLOUT) && !flushOut(c)) {
                c.dead = true;
                continue;
            }
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const ssize_t n = ::read(c.fd, buf, sizeof(buf));
            if (n == 0 || (n < 0 && errno != EAGAIN &&
                           errno != EWOULDBLOCK && errno != EINTR)) {
                c.dead = true;
                continue;
            }
            if (n < 0)
                continue;
            c.reader.feed(buf, std::size_t(n));
            const double at = hwpr::obs::nowMicros();
            std::string payload;
            while (c.reader.next(payload)) {
                const long id = answerId(payload) - long(begin);
                if (id < 0 || std::size_t(id) >= count || done[id])
                    continue;
                done[std::size_t(id)] = 1;
                ++settled;
                if (payload.rfind("{\"ok\": true", 0) == 0) {
                    ++res.answered;
                    res.latencyUs[std::size_t(id)] = at - due[id];
                }
                if (keep[std::size_t(id)])
                    res.kept[std::size_t(id)] = std::move(payload);
            }
        }
    }
    // Error answers, dead connections and timeouts.
    res.failed = count - res.answered;
    res.wallSec = (hwpr::obs::nowMicros() - start) / 1e6;
    for (Conn &c : conns)
        if (c.fd >= 0)
            ::close(c.fd);
    return res;
}

} // namespace perfbench
