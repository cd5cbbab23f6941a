/**
 * @file
 * The benchmark's own statistics: medians, quartiles, the percentile
 * a sample supports, the open-loop ladder's max-rate rule and the
 * genotype repeat counter. Each rule has a self-test on fixed
 * synthetic inputs (selfTest) that every benchmark run executes first.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench
{

/** Median (mean of the two middle values for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** Arithmetic mean; 0 if empty. */
double mean(const std::vector<double> &v);

/**
 * First, second and third quartile with the same "exclusive" method
 * as Python's statistics.quantiles(v, n=4), so numbers printed here
 * match the spread check run over repeated benchmark results. Needs
 * at least two values.
 */
struct Quartiles
{
    double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/** Nearest-rank @p pct-th percentile (pct in (0, 100]); 0 if empty. */
double percentile(std::vector<double> v, double pct);

/**
 * The highest percentile from {99.9, 99, 95, 90} that has at least
 * ten samples beyond it, or 50 (the median) when none has.
 */
double supportedPercentile(std::size_t samples);

/** One rung of the open-loop ladder, as measured. */
struct RungOutcome
{
    double offeredQps = 0.0;
    std::size_t sent = 0;
    std::size_t answered = 0; ///< successful answers
    double p99Us = 0.0;       ///< latency from due time to answer
    double lagP99Us = 0.0;    ///< generator lateness
    bool backlogGrowing = false;
};

/**
 * Latency limit on the ladder's p99, microseconds. One 16-arch request
 * alone takes 7-15 ms to serve on one thread of the 4-vCPU machine
 * this was sized on, and one in ten requests carries 16 archs, so the
 * p99 sits near 15-50 ms even at light load; 100 ms separates that
 * from a queue that grows.
 */
inline constexpr double kLadderP99LimitUs = 100000.0;
/** Generator lateness (p99) beyond which a rung is not a valid test. */
inline constexpr double kGeneratorLagLimitUs = 1000.0;

/**
 * A rung is met when every request it sent was answered without an
 * error, its p99 is within kLadderP99LimitUs, its backlog did not
 * grow and its generator kept to the schedule.
 */
bool rungMet(const RungOutcome &r);

/**
 * Index of the highest rung met before the first rung that is not
 * (rungs run in ascending order and the ladder stops there), or -1
 * when the first rung already fails.
 */
long highestMetRung(const std::vector<RungOutcome> &rungs);

/**
 * Backlog rule: the queue grew during the rung when the median
 * latency of the last quarter of requests (in schedule order) exceeds
 * twice that of the first quarter plus ten milliseconds; a queue that
 * only fluctuates below capacity stays under that.
 */
bool backlogGrowing(const std::vector<double> &latencyInScheduleOrder);

/**
 * Counts observations of keys already observed earlier, e.g. rows a
 * search evaluates whose genotype it evaluated before. The ratio
 * bounds what memoizing the evaluator could save.
 */
template <class Key, class Hash = std::hash<Key>>
class RepeatCounter
{
  public:
    /** Record one observation; true when @p k was seen before. */
    bool
    observe(const Key &k)
    {
        ++total_;
        if (seen_.insert(k).second)
            return false;
        ++repeats_;
        return true;
    }

    std::size_t total() const { return total_; }
    std::size_t repeats() const { return repeats_; }
    double
    ratio() const
    {
        return total_ == 0 ? 0.0 : double(repeats_) / double(total_);
    }

  private:
    std::unordered_set<Key, Hash> seen_;
    std::size_t total_ = 0;
    std::size_t repeats_ = 0;
};

/**
 * Check every rule above on fixed synthetic inputs. Returns the
 * number of checks run; each failure is appended to @p failures.
 */
std::size_t selfTest(std::vector<std::string> &failures);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
