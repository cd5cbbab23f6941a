#include "search/report.h"

#include "pareto/pareto.h"

namespace hwpr::search
{

FrontReport
measureFront(const SearchResult &result, const nasbench::Oracle &oracle,
             hw::PlatformId platform, bool include_energy)
{
    FrontReport report;
    report.objectives.reserve(result.population.size());
    for (const auto &arch : result.population)
        report.objectives.push_back(trueObjectives(
            oracle.record(arch), platform, include_energy));

    report.frontIdx = pareto::nonDominatedIndices(report.objectives);
    for (std::size_t idx : report.frontIdx) {
        report.front.push_back(report.objectives[idx]);
        report.frontArchs.push_back(result.population[idx]);
    }
    return report;
}

std::vector<pareto::Point>
trueFrontOf(const std::vector<nasbench::Architecture> &archs,
            const nasbench::Oracle &oracle, hw::PlatformId platform,
            bool include_energy)
{
    std::vector<pareto::Point> objectives;
    objectives.reserve(archs.size());
    for (const auto &arch : archs)
        objectives.push_back(trueObjectives(oracle.record(arch),
                                            platform, include_energy));
    std::vector<pareto::Point> front;
    for (std::size_t idx : pareto::nonDominatedIndices(objectives))
        front.push_back(objectives[idx]);
    return front;
}

} // namespace hwpr::search
