/**
 * @file
 * Unified batched surrogate interface.
 *
 * Every surrogate family in the repo — HW-PR-NAS, the scalable
 * variant, BRP-NAS, GATES, the LUT latency estimator and the
 * dominance classifier — implements `Surrogate`: fit once on oracle
 * records, then answer whole batches of architectures at a time. The batch methods are the *only*
 * prediction paths; they run one matrix-level forward per chunk (no
 * autodiff recording) and fan the chunks out over the ExecContext
 * thread pool. Chunk boundaries depend only on the batch size, so
 * results are bit-identical at every thread count.
 *
 * `SurrogateEvaluator` adapts a fitted surrogate to the search layer's
 * `search::Evaluator` so MOEA / random search can consume populations
 * directly. (It lives here rather than in search/ because search/ is
 * below core/ in the link order; the function-based adapters in
 * search/surrogate_evaluator.h remain for ad-hoc callables.)
 */

#ifndef HWPR_CORE_SURROGATE_H
#define HWPR_CORE_SURROGATE_H

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/threadpool.h"
#include "core/batch_plan.h"
#include "hw/platform.h"
#include "nasbench/dataset.h"
#include "search/evaluator.h"

namespace hwpr::core
{

/** Training data handed to Surrogate::fit. */
struct SurrogateDataset
{
    std::vector<const nasbench::ArchRecord *> train;
    std::vector<const nasbench::ArchRecord *> val;
    hw::PlatformId platform = hw::PlatformId::EdgeGpu;
};

/**
 * Abstract batched surrogate.
 *
 * Implementations must override at least one of scoreBatch /
 * objectivesBatch; the defaults express each in terms of the other
 * (calling neither override recurses forever). Scores follow the
 * search convention: higher = more Pareto-dominant. Objectives are
 * minimization values, one row per architecture.
 */
class Surrogate
{
  public:
    virtual ~Surrogate() = default;

    /** Display name (matches the paper's method names). */
    virtual std::string name() const = 0;

    /** How the search should consume this surrogate. */
    virtual search::EvalKind evalKind() const = 0;

    /** Columns of objectivesBatch(). */
    virtual std::size_t numObjectives() const { return 2; }

    /**
     * Fit on oracle records. @p ctx supplies the RNG seed (model
     * randomness is reseeded from it, so two fits with the same seed
     * are identical) and the thread pool used for batched linear
     * algebra during training and prediction.
     */
    virtual void fit(const SurrogateDataset &data, ExecContext &ctx) = 0;

    /** Pareto scores, one per architecture (higher = better). */
    virtual std::vector<double>
    scoreBatch(std::span<const nasbench::Architecture> archs) const;

    /** Minimization objectives, one row per architecture. */
    virtual Matrix
    objectivesBatch(std::span<const nasbench::Architecture> archs) const;

    /**
     * Fused batched prediction against a caller-held BatchPlan: one
     * encode+predict pass over recycled scratch, zero allocation once
     * the plan is warm. Returns the plan's output matrix — one score
     * column for ParetoScore surrogates, numObjectives() minimization
     * columns for ObjectiveVector surrogates. Values are bit-identical
     * to scoreBatch() / objectivesBatch() (all six families override
     * this with the fused pass and express the legacy entry points
     * through it). The default adapts any other implementation by
     * copying the legacy batch results into the plan.
     */
    virtual const Matrix &
    predictBatch(std::span<const nasbench::Architecture> archs,
                 BatchPlan &plan) const;

    /**
     * Alias of predictBatch, kept for callers that only compare rows
     * (the serve `rank` op, external benchmark drivers). There is one
     * exact prediction path; a rank is never computed differently
     * from a prediction.
     */
    const Matrix &rankBatch(std::span<const nasbench::Architecture> archs,
                            BatchPlan &plan) const
    {
        return predictBatch(archs, plan);
    }

    /**
     * Whether this family predicts *pairwise dominance* directly, so
     * dominanceCounts() is meaningful. Only the dominance classifier
     * (core::DominanceSurrogate) returns true; the score/objective
     * families have no pairwise head.
     */
    virtual bool supportsDominance() const { return false; }

    /**
     * Within-population predicted-dominance counts: out[i] = number
     * of members of @p archs the model predicts architecture i
     * dominates (higher = more dominant). Drives the
     * classification-wise MOEA survival selection (see
     * search::MoeaConfig::dominanceSelection). Default: empty —
     * callers must check supportsDominance() first.
     */
    virtual std::vector<double>
    dominanceCounts(std::span<const nasbench::Architecture> /*archs*/,
                    BatchPlan & /*plan*/) const
    {
        return {};
    }

    /**
     * Serialize to a binary checkpoint. Default: unsupported
     * (returns false without touching the filesystem).
     */
    virtual bool save(const std::string & /*path*/) const
    {
        return false;
    }
};

/**
 * search::Evaluator over a fitted Surrogate. Score surrogates yield
 * single-element points (the Pareto score); vector surrogates yield
 * one minimization objective vector per architecture. The surrogate
 * must outlive the evaluator.
 */
class SurrogateEvaluator : public search::Evaluator
{
  public:
    explicit SurrogateEvaluator(const Surrogate &model,
                                double sim_seconds_per_eval = 0.0);

    search::EvalKind kind() const override { return model_.evalKind(); }
    std::string name() const override { return model_.name(); }

    std::size_t numObjectives() const override
    {
        return kind() == search::EvalKind::ParetoScore
                   ? 1
                   : model_.numObjectives();
    }

    std::vector<pareto::Point>
    evaluate(const std::vector<nasbench::Architecture> &archs) override;

    double simulatedCostSeconds(std::size_t batch) const override
    {
        return simSecondsPerEval_ * double(batch);
    }

    /** True when the wrapped surrogate has a pairwise head. */
    bool hasPredictedDominance() const override
    {
        return model_.supportsDominance();
    }

    /**
     * Predicted-dominance counts over one population, delegated to
     * Surrogate::dominanceCounts against a dedicated plan (merged
     * populations are roughly twice the evaluate() batch size, so
     * sharing the score plan would thrash its buffers).
     */
    std::vector<double> predictedDominanceCounts(
        const std::vector<nasbench::Architecture> &archs) override;

  private:
    const Surrogate &model_;
    /**
     * One plan per search, reused across generations: population
     * sizes are constant, so every generation's pass runs on the
     * buffers the first generation allocated.
     */
    BatchPlan plan_;
    /** Separate plan for dominance-count sweeps (merged-size batches). */
    BatchPlan countPlan_;
    double simSecondsPerEval_;
};

/**
 * Factory restoring one surrogate family from a checkpoint path.
 * Returns nullptr on corruption or mismatch.
 */
using SurrogateLoader =
    std::function<std::unique_ptr<Surrogate>(const std::string &)>;

/**
 * Register a loader for a checkpoint kind (the string written by
 * writeHeader). Layers above core — the baselines library cannot be
 * linked from here — register their formats through this hook; see
 * baselines::registerBaselineLoaders(). Re-registering a kind
 * replaces the previous loader. Thread-safe.
 */
void registerSurrogateLoader(const std::string &kind,
                             SurrogateLoader loader);

/**
 * Restore a surrogate from a checkpoint written by Surrogate::save.
 * The file's CRC footer is verified and its header kind dispatched to
 * the matching loader (HW-PR-NAS and the scalable variant are built
 * in; other families come from registerSurrogateLoader). Returns
 * nullptr when the file is corrupt or the kind unknown.
 */
std::unique_ptr<Surrogate> loadSurrogate(const std::string &path);

} // namespace hwpr::core

#endif // HWPR_CORE_SURROGATE_H
