/**
 * @file
 * HW-PR-NAS: the Pareto rank-preserving surrogate model (paper
 * Sec. III, Fig. 3).
 *
 * Architecture: two branch predictors feed one combiner.
 *  - Accuracy branch: GCN encoding (+ architecture features) -> MLP,
 *    the best accuracy configuration of the Fig. 4 / Table I ablation.
 *  - Latency branch: LSTM encoding (+ AF) -> one MLP head per hardware
 *    platform (Sec. III-E, multi-platform predictor); the target
 *    platform id indexes the head.
 *  - Combiner: a dense layer over the two branch outputs producing a
 *    single Pareto score per architecture.
 *
 * Training (Sec. III-A/B, Table II): all components are trained
 * simultaneously with the listwise Pareto-rank loss (Eq. 4) on the
 * combiner output plus per-branch RMSE auxiliary losses, using AdamW,
 * cosine annealing and early stopping; the combiner is then fine-tuned
 * alone for a few epochs ("we further train the last dense layer one
 * last time").
 */

#ifndef HWPR_CORE_HWPRNAS_H
#define HWPR_CORE_HWPRNAS_H

#include <array>
#include <memory>
#include <span>

#include "common/serialize.h"
#include "core/encoding.h"
#include "core/surrogate.h"
#include "core/train_util.h"
#include "hw/platform.h"
#include "nn/layers.h"

namespace hwpr::core
{

/** Model-shape configuration. */
struct HwPrNasConfig
{
    EncoderConfig encoder = EncoderConfig::fast();
    /** Hidden widths of the two branch MLPs. */
    std::vector<std::size_t> headHidden = {64, 32};
    /**
     * Hidden widths of the combiner dense layer(s) over the two
     * branch outputs. Empty = a single linear layer (a pure weighted
     * sum, as drawn in Fig. 3); one small hidden layer lets the score
     * express curved Pareto level sets and is the default.
     */
    std::vector<std::size_t> combinerHidden = {16};
    /** Concatenate AF with both learned encodings (paper default). */
    bool useArchFeatures = true;
    /** Weight of the per-branch RMSE auxiliary losses. */
    double rmseWeight = 1.0;
    /** Share one latency head across platforms (ablation; the paper
     *  duplicates the regressor per platform). */
    bool sharedLatencyHead = false;
};

/** Training hyperparameters — paper Table II defaults. */
struct TrainConfig
{
    std::size_t epochs = 80;
    /** Early stopping patience in epochs (paper observes convergence
     *  around epoch 30 with the same mechanism). */
    std::size_t patience = 8;
    double learningRate = 3e-4;      ///< Table II: 0.0003
    bool cosineAnnealing = true;     ///< Table II schedule
    std::size_t batchSize = 128;     ///< Table II
    double weightDecay = 3e-4;       ///< Table II (AdamW, L2 0.0003)
    double dropout = 0.02;           ///< Table II
    /** Final combiner-only fine-tuning epochs. */
    std::size_t combinerEpochs = 5;
    /** Disable the listwise loss (RMSE-only ablation, footnote 2). */
    bool listwiseLoss = true;
};

/** The HW-PR-NAS surrogate model. */
class HwPrNas : public Surrogate
{
  public:
    HwPrNas(const HwPrNasConfig &cfg, nasbench::DatasetId dataset,
            std::uint64_t seed);

    // Surrogate interface -------------------------------------------

    std::string name() const override { return "HW-PR-NAS"; }
    search::EvalKind evalKind() const override
    {
        return search::EvalKind::ParetoScore;
    }
    std::size_t numObjectives() const override { return 2; }

    /**
     * Reseed from @p ctx and train on the dataset with fitConfig().
     * Equal seeds (at any thread count) give identical models.
     */
    void fit(const SurrogateDataset &data, ExecContext &ctx) override;

    /** Pareto scores from the active platform head. */
    std::vector<double> scoreBatch(
        std::span<const nasbench::Architecture> archs) const override;

    /** (100 - predicted accuracy %, predicted latency ms) rows. */
    Matrix objectivesBatch(
        std::span<const nasbench::Architecture> archs) const override;

    /**
     * Fused encode+heads+combiner pass against the plan's recycled
     * scratch; returns the (n x 1) score column for the active
     * platform. Bit-identical to scoreBatch().
     */
    const Matrix &
    predictBatch(std::span<const nasbench::Architecture> archs,
                 BatchPlan &plan) const override;

    /** Training hyperparameters used by fit(). */
    void setFitConfig(const TrainConfig &cfg) { fitConfig_ = cfg; }
    const TrainConfig &fitConfig() const { return fitConfig_; }

    // ---------------------------------------------------------------

    /**
     * Train on oracle records for one target platform. Records carry
     * true accuracy and per-platform latency; Pareto ranks are
     * computed per batch (Sec. III-A).
     */
    void train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               hw::PlatformId platform, const TrainConfig &cfg);

    /**
     * Joint multi-platform training (Sec. III-E): one shared
     * accuracy branch and encoder, one latency head per listed
     * platform, trained simultaneously — the listwise loss is
     * averaged over the platforms' Pareto rankings and every head
     * receives its RMSE auxiliary. After this call, scoresFor() can
     * target any trained platform; scores() uses the first one.
     */
    void trainMultiPlatform(
        const std::vector<const nasbench::ArchRecord *> &train,
        const std::vector<const nasbench::ArchRecord *> &val,
        const std::vector<hw::PlatformId> &platforms,
        const TrainConfig &cfg);

    /**
     * Pareto scores (higher = more dominant) for a batch. All
     * prediction entry points below route through one batched raw
     * forward — no autodiff recording — chunked over the ExecContext
     * pool.
     */
    std::vector<double>
    scores(const std::vector<nasbench::Architecture> &archs) const;

    /** Pareto scores against a specific (trained) platform head. */
    std::vector<double>
    scoresFor(const std::vector<nasbench::Architecture> &archs,
              hw::PlatformId platform) const;

    /** Latency predictions from a specific platform head, ms. */
    std::vector<double>
    predictLatencyFor(const std::vector<nasbench::Architecture> &archs,
                      hw::PlatformId platform) const;

    /** Retarget scores()/predictLatency() to another trained head. */
    void setActivePlatform(hw::PlatformId platform)
    {
        platform_ = platform;
    }

    /** Accuracy-branch predictions, percent. */
    std::vector<double>
    predictAccuracy(const std::vector<nasbench::Architecture> &archs)
        const;

    /** Latency-branch predictions for the trained platform, ms. */
    std::vector<double>
    predictLatency(const std::vector<nasbench::Architecture> &archs)
        const;

    hw::PlatformId platform() const { return platform_; }
    nasbench::DatasetId dataset() const { return dataset_; }
    bool trained() const { return trained_; }

    /**
     * Per-epoch validation losses of the last train() /
     * trainMultiPlatform() call, in epoch order. Used by bench_train
     * and the reproducibility tests to assert that the same-seed loss
     * trajectory is bit-identical across thread counts and with the
     * fast-path optimizations toggled on or off.
     */
    const std::vector<double> &valLossHistory() const
    {
        return valLossHistory_;
    }

    /** All trainable parameters. */
    std::vector<nn::Tensor> params() const;

    /**
     * Serialize the trained model (configuration, scalers and all
     * parameters) to a binary checkpoint. The write is atomic
     * (temp file + fsync + rename) and the file carries a CRC32
     * footer that load() verifies.
     * @return false when the file cannot be written.
     */
    bool save(const std::string &path) const override;

    /**
     * Restore a model from a checkpoint written by save(). Returns
     * nullptr on corruption, format or shape mismatch.
     */
    static std::unique_ptr<HwPrNas> load(const std::string &path);

  private:
    struct Forward
    {
        nn::Tensor accPred;
        nn::Tensor latPred;
        nn::Tensor score;
    };

    Forward forward(const std::vector<nasbench::Architecture> &archs,
                    std::size_t head, bool training, Rng &rng) const;

    /**
     * Training forward over fit-time encoding caches: identical math
     * (and RNG draw order) to forward(), minus the per-step encoding
     * input recomputation.
     */
    Forward forwardCached(const EncoderCache &acc_cache,
                          const EncoderCache &lat_cache,
                          const std::vector<std::size_t> &batch,
                          std::size_t head, bool training,
                          Rng &rng) const;

    /** Normalized per-row outputs of the raw inference forward. */
    struct RawForward
    {
        std::vector<double> score;   ///< combiner output
        std::vector<double> accNorm; ///< standardized accuracy
        std::vector<double> latNorm; ///< standardized log-latency
    };

    /**
     * Fused batched inference: encode + heads + combiner per chunk
     * against the plan's scratch, chunks fanned out over the
     * ExecContext pool into disjoint output rows (bit-identical at
     * any thread count). Scores land in the plan's output column;
     * the normalized branch outputs additionally land in @p aux when
     * it is non-null (the objective/accuracy/latency entry points
     * need them).
     */
    void fusedForward(std::span<const nasbench::Architecture> archs,
                      std::size_t head, BatchPlan &plan,
                      RawForward *aux) const;

    /** fusedForward through a per-call plan (legacy entry points). */
    RawForward rawForward(std::span<const nasbench::Architecture> archs,
                          std::size_t head) const;

    std::size_t headIndex(hw::PlatformId platform) const;

    /** Checkpoint body (header + config + scalers + params). */
    void writeBody(BinaryWriter &w) const;

    /**
     * Instantiate encoders, heads and the combiner. @p scaler_fit
     * provides the architectures the AF scaler is fitted on
     * (checkpoint loading replaces the scalers afterwards).
     */
    void buildModel(const std::vector<nasbench::Architecture> &
                        scaler_fit,
                    double dropout);

    HwPrNasConfig cfg_;
    nasbench::DatasetId dataset_;
    TrainConfig fitConfig_;
    mutable Rng rng_;
    hw::PlatformId platform_ = hw::PlatformId::EdgeGpu;

    std::unique_ptr<ArchEncoder> accEncoder_;
    std::unique_ptr<ArchEncoder> latEncoder_;
    std::unique_ptr<nn::Mlp> accHead_;
    /** Multi-platform latency predictor: one head per platform. */
    std::vector<std::unique_ptr<nn::Mlp>> latHeads_;
    std::unique_ptr<nn::Mlp> combiner_;

    TargetScaler accScaler_;
    /** Per-head latency scalers (index = headIndex of a platform). */
    std::array<TargetScaler, hw::kNumPlatforms> latScalers_;
    std::vector<double> valLossHistory_;
    bool trained_ = false;
};

} // namespace hwpr::core

#endif // HWPR_CORE_HWPRNAS_H
