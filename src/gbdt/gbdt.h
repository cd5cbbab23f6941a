/**
 * @file
 * Gradient-boosted tree ensembles with squared-error objective.
 *
 * Two presets mirror the regressors of the paper's Table I ablation:
 *  - xgboostConfig(): level-wise exact trees ("XGBoost").
 *  - lgboostConfig(): leaf-wise histogram trees ("LGBoost").
 */

#ifndef HWPR_GBDT_GBDT_H
#define HWPR_GBDT_GBDT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "gbdt/tree.h"

namespace hwpr::gbdt
{

/** Ensemble hyperparameters. */
struct GbdtConfig
{
    TreeConfig tree;
    /** Boosting rounds. */
    std::size_t rounds = 200;
    /** Shrinkage applied to each tree's contribution. */
    double learningRate = 0.1;
    /** Row subsample fraction per round (1.0 = no subsampling). */
    double subsample = 1.0;
    /** Early-stop after this many rounds without validation
     *  improvement (0 disables; requires a validation set). */
    std::size_t earlyStopRounds = 20;
};

/** XGBoost-style preset. */
GbdtConfig xgboostConfig();

/** LightGBM-style preset. */
GbdtConfig lgboostConfig();

/** Gradient-boosted regression ensemble. */
class Gbdt
{
  public:
    explicit Gbdt(const GbdtConfig &cfg) : cfg_(cfg) {}

    /**
     * Fit to (x, y) with squared-error loss. If @p x_val is non-null,
     * validation RMSE drives early stopping.
     */
    void fit(const Matrix &x, const std::vector<double> &y, Rng &rng,
             const Matrix *x_val = nullptr,
             const std::vector<double> *y_val = nullptr);

    /** Predict all rows of @p x. */
    std::vector<double> predict(const Matrix &x) const;

    /**
     * Predict all rows of @p x as an (n x 1) matrix, fanning the tree
     * traversals out over the global ExecContext pool. Rows are
     * independent, so results are identical at every thread count.
     *
     * Runs on the flattened SoA node arrays (built lazily after
     * fit/load): contiguous feature/threshold/child blocks with a
     * branch-free fixed-depth descent per tree. The comparisons and
     * the accumulation order match predictRow() exactly, so the two
     * paths are bit-identical — predictRow() is the kept oracle
     * (tests/test_gbdt.cc checks them against each other).
     */
    Matrix predictBatch(const Matrix &x) const;

    /**
     * Predict a single row by walking the node structs (the oracle
     * path; also what fit-time boosting uses via the trees directly).
     */
    double predictRow(const Matrix &x, std::size_t row) const;

    /**
     * Serialize the fitted ensemble (learning rate, base prediction
     * and trees — everything predict() consumes).
     */
    void saveTo(BinaryWriter &w) const;

    /**
     * Restore an ensemble written by saveTo(). @p num_features bounds
     * the split-feature indices. Returns false on any corruption;
     * the ensemble is left empty in that case.
     */
    bool loadFrom(BinaryReader &r, std::size_t num_features);

    std::size_t numTrees() const { return trees_.size(); }
    const GbdtConfig &config() const { return cfg_; }

  private:
    /**
     * Flattened SoA view of the whole ensemble: one contiguous block
     * per field, absolute child indices, self-loop leaves (see
     * RegressionTree::flattenInto). depth[t] bounds tree t's descent
     * so the inner loop has a data-independent trip count.
     */
    struct FlatForest
    {
        std::vector<std::uint32_t> feature;
        std::vector<double> threshold;
        std::vector<std::int32_t> left;
        std::vector<std::int32_t> right;
        std::vector<double> weight;
        std::vector<std::int32_t> roots;
        std::vector<std::uint32_t> depth;
    };

    /** Build flat_ if stale (double-checked; safe under concurrent
     *  const predict calls, which tests exercise under TSan). */
    void ensureFlat() const;
    /** Invalidate the flat view after fit()/loadFrom(). */
    void invalidateFlat() { flatBuilt_.store(false); }
    /** predictRow() on the flat arrays; bit-identical to it. */
    double predictRowFlat(const Matrix &x, std::size_t row) const;

    GbdtConfig cfg_;
    double base_ = 0.0;
    std::vector<RegressionTree> trees_;
    mutable FlatForest flat_;
    mutable std::mutex flatMu_;
    mutable std::atomic<bool> flatBuilt_{false};
};

} // namespace hwpr::gbdt

#endif // HWPR_GBDT_GBDT_H
