/**
 * @file
 * BRP-NAS-style baseline (Dudziak et al., NeurIPS'20): two independent
 * GCN-based surrogates — an accuracy predictor and a per-device
 * latency predictor — whose predictions are combined inside the search
 * by non-dominated sorting. This is the "two surrogate models"
 * configuration HW-PR-NAS is compared against throughout the paper
 * (Fig. 1, Fig. 6, Table III, Fig. 7).
 */

#ifndef HWPR_BASELINES_BRPNAS_H
#define HWPR_BASELINES_BRPNAS_H

#include <memory>
#include <span>

#include "core/predictor.h"
#include "core/surrogate.h"

namespace hwpr::baselines
{

/** Two-surrogate BRP-NAS baseline. */
class BrpNas : public core::Surrogate
{
  public:
    BrpNas(const core::EncoderConfig &enc_cfg,
           nasbench::DatasetId dataset, std::uint64_t seed);

    // Surrogate interface -------------------------------------------

    std::string name() const override { return "BRP-NAS"; }
    search::EvalKind evalKind() const override
    {
        return search::EvalKind::ObjectiveVector;
    }
    std::size_t numObjectives() const override { return 2; }

    /** Reseed from @p ctx and train both predictors. */
    void fit(const core::SurrogateDataset &data,
             ExecContext &ctx) override;

    /** (100 - predicted accuracy %, predicted latency ms) rows. */
    Matrix objectivesBatch(
        std::span<const nasbench::Architecture> archs) const override;

    /**
     * Fused pass: both predictors run per chunk against the plan's
     * recycled scratch, so each chunk is encoded and scored for
     * accuracy and latency before moving on. Bit-identical to
     * objectivesBatch(), which routes through a per-call plan.
     */
    const Matrix &
    predictBatch(std::span<const nasbench::Architecture> archs,
                 core::BatchPlan &plan) const override;

    // ---------------------------------------------------------------

    /**
     * Train both predictors. Accuracy uses GCN encoding with the
     * binary-relation-style ranking objective (hinge) plus MSE;
     * latency uses GCN encoding with MSE (BRP-NAS trains a GCN
     * regressor per device).
     */
    void train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               hw::PlatformId platform,
               const core::PredictorTrainConfig &base_cfg = {});

    std::vector<double>
    predictAccuracy(std::span<const nasbench::Architecture> a) const;
    std::vector<double>
    predictLatency(std::span<const nasbench::Architecture> a) const;

    /**
     * Objective-vector evaluator (100 - predicted accuracy, predicted
     * latency). The BrpNas object must outlive the evaluator.
     */
    core::SurrogateEvaluator evaluator() const;

    hw::PlatformId platform() const { return platform_; }

    /**
     * Serialize both trained predictors into an atomic CRC-checked
     * checkpoint (kind "brpnas").
     */
    bool save(const std::string &path) const override;

    /**
     * Restore a baseline written by save(). Returns nullptr on
     * corruption, format or shape mismatch.
     */
    static std::unique_ptr<BrpNas> load(const std::string &path);

  private:
    core::EncoderConfig encCfg_;
    nasbench::DatasetId dataset_;
    std::uint64_t seed_;
    hw::PlatformId platform_ = hw::PlatformId::EdgeGpu;
    std::unique_ptr<core::MetricPredictor> accuracy_;
    std::unique_ptr<core::MetricPredictor> latency_;
};

} // namespace hwpr::baselines

#endif // HWPR_BASELINES_BRPNAS_H
