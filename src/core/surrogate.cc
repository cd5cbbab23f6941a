#include "core/surrogate.h"

#include <map>
#include <mutex>

#include "common/logging.h"
#include "common/serialize.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/scalable.h"

namespace hwpr::core
{

std::vector<double>
Surrogate::scoreBatch(std::span<const nasbench::Architecture> archs) const
{
    // Default: negated sum of the minimization objectives — a crude
    // scalarization that preserves "lower objectives = higher score".
    const Matrix obj = objectivesBatch(archs);
    std::vector<double> out(obj.rows());
    for (std::size_t i = 0; i < obj.rows(); ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < obj.cols(); ++j)
            acc += obj(i, j);
        out[i] = -acc;
    }
    return out;
}

Matrix
Surrogate::objectivesBatch(
    std::span<const nasbench::Architecture> archs) const
{
    // Default: a single "negated score" minimization objective.
    const std::vector<double> s = scoreBatch(archs);
    Matrix out(s.size(), 1);
    for (std::size_t i = 0; i < s.size(); ++i)
        out(i, 0) = -s[i];
    return out;
}

const Matrix &
Surrogate::predictBatch(std::span<const nasbench::Architecture> archs,
                        BatchPlan &plan) const
{
    // Adapter for implementations without a fused pass: run the
    // legacy batch entry points and copy into the plan's output.
    if (evalKind() == search::EvalKind::ParetoScore) {
        Matrix &out = plan.prepare(archs.size(), 1);
        const std::vector<double> s = scoreBatch(archs);
        for (std::size_t i = 0; i < s.size(); ++i)
            out(i, 0) = s[i];
        return out;
    }
    // Sized off the emitted matrix, not numObjectives(): ad-hoc
    // implementations may emit fewer columns than they rank over.
    const Matrix obj = objectivesBatch(archs);
    Matrix &out = plan.prepare(archs.size(), obj.cols());
    out.raw() = obj.raw();
    return out;
}

SurrogateEvaluator::SurrogateEvaluator(const Surrogate &model,
                                       double sim_seconds_per_eval)
    : model_(model), simSecondsPerEval_(sim_seconds_per_eval)
{
}

std::vector<double>
SurrogateEvaluator::predictedDominanceCounts(
    const std::vector<nasbench::Architecture> &archs)
{
    return model_.dominanceCounts(archs, countPlan_);
}

std::vector<pareto::Point>
SurrogateEvaluator::evaluate(
    const std::vector<nasbench::Architecture> &archs)
{
    std::vector<pareto::Point> out;
    out.reserve(archs.size());
    const Matrix &pred = model_.predictBatch(archs, plan_);
    for (std::size_t i = 0; i < pred.rows(); ++i) {
        pareto::Point p(pred.cols(), 0.0);
        for (std::size_t j = 0; j < pred.cols(); ++j)
            p[j] = pred(i, j);
        out.push_back(std::move(p));
    }
    return out;
}

namespace
{

std::mutex &
loaderMutex()
{
    static std::mutex m;
    return m;
}

std::map<std::string, SurrogateLoader> &
loaderRegistry()
{
    static std::map<std::string, SurrogateLoader> registry;
    return registry;
}

} // namespace

void
registerSurrogateLoader(const std::string &kind, SurrogateLoader loader)
{
    std::lock_guard<std::mutex> lock(loaderMutex());
    loaderRegistry()[kind] = std::move(loader);
}

std::unique_ptr<Surrogate>
loadSurrogate(const std::string &path)
{
    const std::string kind = checkpointKind(path);
    if (kind.empty())
        return nullptr; // missing, corrupt or not a checkpoint
    if (kind == "hwprnas")
        return HwPrNas::load(path);
    if (kind == "hwpr-scalable")
        return ScalableHwPrNas::load(path);
    if (kind == "dominance")
        return DominanceSurrogate::load(path);

    SurrogateLoader loader;
    {
        std::lock_guard<std::mutex> lock(loaderMutex());
        auto it = loaderRegistry().find(kind);
        if (it == loaderRegistry().end())
            return nullptr;
        loader = it->second;
    }
    return loader(path);
}

} // namespace hwpr::core
