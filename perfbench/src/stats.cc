#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench
{

namespace
{

/** 1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990
 *  despite 0.999 having no exact binary form. */
double
nearestRank(double pct, std::size_t n)
{
    return std::ceil(pct * double(n) / 100.0 - 1e-9);
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    const long ld = long(v.size());
    if (ld < 2)
        return q;
    std::sort(v.begin(), v.end());
    const long n = 4, m = ld + 1;
    double out[3];
    for (long i = 1; i < n; ++i) {
        const long j = std::clamp(i * m / n, 1L, ld - 1);
        const long delta = i * m - j * n;
        out[i - 1] = (v[std::size_t(j - 1)] * double(n - delta) +
                      v[std::size_t(j)] * double(delta)) /
                     double(n);
    }
    q.q1 = out[0];
    q.q2 = out[1];
    q.q3 = out[2];
    return q;
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = nearestRank(pct, v.size());
    const std::size_t idx =
        std::size_t(std::clamp(rank, 1.0, double(v.size()))) - 1;
    return v[idx];
}

double
supportedPercentile(std::size_t samples)
{
    for (const double pct : {99.9, 99.0, 95.0, 90.0}) {
        // Samples strictly beyond the nearest-rank position.
        if (double(samples) - nearestRank(pct, samples) >= 10.0)
            return pct;
    }
    return 50.0;
}

bool
rungMet(const RungOutcome &r)
{
    return r.sent > 0 && r.answered == r.sent &&
           r.p99Us <= kLadderP99LimitUs && !r.backlogGrowing &&
           r.lagP99Us <= kGeneratorLagLimitUs;
}

long
highestMetRung(const std::vector<RungOutcome> &rungs)
{
    long best = -1;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        if (!rungMet(rungs[i]))
            break;
        best = long(i);
    }
    return best;
}

bool
backlogGrowing(const std::vector<double> &lat)
{
    const std::size_t q = lat.size() / 4;
    if (q == 0)
        return false;
    const double first = median({lat.begin(), lat.begin() + long(q)});
    const double last = median({lat.end() - long(q), lat.end()});
    return last > 2.0 * first + 10000.0;
}

namespace
{

void
expect(bool ok, const std::string &what, std::size_t &checks,
       std::vector<std::string> &failures)
{
    ++checks;
    if (!ok)
        failures.push_back("stats self-test: " + what);
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

} // namespace

std::size_t
selfTest(std::vector<std::string> &failures)
{
    std::size_t checks = 0;

    // Percentile choice: p99 needs 1000 samples (990th value, ten
    // beyond); 999 samples only support p95.
    expect(supportedPercentile(1000) == 99.0, "p99 at n=1000", checks,
           failures);
    expect(supportedPercentile(999) == 95.0, "p95 at n=999", checks,
           failures);
    expect(supportedPercentile(10000) == 99.9, "p99.9 at n=10000",
           checks, failures);
    expect(supportedPercentile(100) == 90.0, "p90 at n=100", checks,
           failures);
    expect(supportedPercentile(19) == 50.0, "median only at n=19",
           checks, failures);
    std::vector<double> ramp(1000);
    std::iota(ramp.begin(), ramp.end(), 1.0);
    std::reverse(ramp.begin(), ramp.end());
    expect(percentile(ramp, 99.0) == 990.0, "nearest-rank p99", checks,
           failures);
    expect(percentile(ramp, 50.0) == 500.0, "nearest-rank p50", checks,
           failures);

    // Quartiles match statistics.quantiles(range(1, 11), n=4) and
    // statistics.quantiles([1, 2, 4, 8, 100], n=4).
    const Quartiles a =
        quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    expect(near(a.q1, 2.75) && near(a.q2, 5.5) && near(a.q3, 8.25),
           "quartiles of 1..10", checks, failures);
    const Quartiles b = quartiles({100, 1, 8, 2, 4});
    expect(near(b.q1, 1.5) && near(b.q2, 4.0) && near(b.q3, 54.0),
           "quartiles of [1, 2, 4, 8, 100]", checks, failures);
    expect(median({3, 1, 2, 10}) == 2.5, "even median", checks,
           failures);

    // Ladder rule: the first rung that is not met ends the ladder.
    const RungOutcome ok{1000, 1000, 1000, 900, 50, false};
    RungOutcome slow = ok;
    slow.p99Us = kLadderP99LimitUs + 1;
    RungOutcome lost = ok;
    lost.answered = 999;
    RungOutcome backlog = ok;
    backlog.backlogGrowing = true;
    RungOutcome late = ok;
    late.lagP99Us = kGeneratorLagLimitUs + 1;
    expect(rungMet(ok) && !rungMet(slow) && !rungMet(lost) &&
               !rungMet(backlog) && !rungMet(late),
           "rung conditions", checks, failures);
    expect(highestMetRung({ok, ok, slow, ok}) == 1,
           "ladder stops at first miss", checks, failures);
    expect(highestMetRung({lost, ok}) == -1, "failed first rung",
           checks, failures);
    expect(highestMetRung({ok, ok, ok}) == 2, "all rungs met", checks,
           failures);
    std::vector<double> steady(400, 800.0), growing(400);
    for (std::size_t i = 0; i < growing.size(); ++i)
        growing[i] = 500.0 + 100.0 * double(i);
    expect(!backlogGrowing(steady) && backlogGrowing(growing),
           "backlog rule", checks, failures);

    // Repeat counter: 1 2 1 3 2 2 repeats three of six.
    RepeatCounter<int> rc;
    for (const int k : {1, 2, 1, 3, 2, 2})
        rc.observe(k);
    expect(rc.total() == 6 && rc.repeats() == 3 && near(rc.ratio(), 0.5),
           "repeat counter", checks, failures);
    return checks;
}

} // namespace perfbench
