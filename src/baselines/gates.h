/**
 * @file
 * GATES-style baseline (Ning et al., ECCV'20): a graph-based encoding
 * through a GCN with predictors trained purely as *ranking* models
 * using the pairwise hinge loss with margin 0.1. The predicted scores
 * carry no unit — only their order matters — which is exactly what
 * non-dominated sorting consumes.
 */

#ifndef HWPR_BASELINES_GATES_H
#define HWPR_BASELINES_GATES_H

#include <memory>
#include <span>

#include "core/predictor.h"
#include "core/surrogate.h"

namespace hwpr::baselines
{

/** Pairwise-ranking GCN baseline. */
class Gates : public core::Surrogate
{
  public:
    Gates(const core::EncoderConfig &enc_cfg,
          nasbench::DatasetId dataset, std::uint64_t seed);

    // Surrogate interface -------------------------------------------

    std::string name() const override { return "GATES"; }
    search::EvalKind evalKind() const override
    {
        return search::EvalKind::ObjectiveVector;
    }
    std::size_t numObjectives() const override { return 2; }

    /** Reseed from @p ctx and train both ranking predictors. */
    void fit(const core::SurrogateDataset &data,
             ExecContext &ctx) override;

    /** (-accuracy score, latency score) rows, both minimized. */
    Matrix objectivesBatch(
        std::span<const nasbench::Architecture> archs) const override;

    /**
     * Fused pass: both ranking predictors run per chunk against the
     * plan's recycled scratch. Bit-identical to objectivesBatch(),
     * which routes through a per-call plan.
     */
    const Matrix &
    predictBatch(std::span<const nasbench::Architecture> archs,
                 core::BatchPlan &plan) const override;

    // ---------------------------------------------------------------

    /** Train the accuracy and latency ranking predictors. */
    void train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               hw::PlatformId platform,
               const core::PredictorTrainConfig &base_cfg = {});

    /** Accuracy ranking scores (higher = more accurate). */
    std::vector<double>
    accuracyScores(std::span<const nasbench::Architecture> a) const;

    /** Latency ranking scores (higher = slower). */
    std::vector<double>
    latencyScores(std::span<const nasbench::Architecture> a) const;

    /**
     * Objective-vector evaluator (-accuracy score, latency score);
     * both objectives are minimized by the search. The Gates object
     * must outlive the evaluator.
     */
    core::SurrogateEvaluator evaluator() const;

    hw::PlatformId platform() const { return platform_; }

    /**
     * Serialize both trained ranking predictors into an atomic
     * CRC-checked checkpoint (kind "gates").
     */
    bool save(const std::string &path) const override;

    /**
     * Restore a baseline written by save(). Returns nullptr on
     * corruption, format or shape mismatch.
     */
    static std::unique_ptr<Gates> load(const std::string &path);

  private:
    core::EncoderConfig encCfg_;
    nasbench::DatasetId dataset_;
    std::uint64_t seed_;
    hw::PlatformId platform_ = hw::PlatformId::EdgeGpu;
    std::unique_ptr<core::MetricPredictor> accuracy_;
    std::unique_ptr<core::MetricPredictor> latency_;
};

} // namespace hwpr::baselines

#endif // HWPR_BASELINES_GATES_H
