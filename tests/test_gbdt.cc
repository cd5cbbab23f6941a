/**
 * @file
 * Gradient-boosted tree tests: both growth policies fit simple
 * functions, early stopping works, the split machinery respects
 * its constraints, and the flattened batch descent matches the
 * node-chasing oracle bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "common/prop.h"
#include "common/stats.h"
#include "gbdt/gbdt.h"

using namespace hwpr;
using namespace hwpr::gbdt;

namespace
{

/** y = f(x) dataset on a grid plus noise-free targets. */
void
makeDataset(std::size_t n, const std::function<double(double, double)> &f,
            Matrix &x, std::vector<double> &y, std::uint64_t seed)
{
    Rng rng(seed);
    x = Matrix(n, 2);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(-2, 2);
        x(i, 1) = rng.uniform(-2, 2);
        y[i] = f(x(i, 0), x(i, 1));
    }
}

} // namespace

TEST(RegressionTree, SingleSplitRecoversStepFunction)
{
    Matrix x(100, 1);
    std::vector<double> grad(100), hess(100, 1.0);
    std::vector<std::size_t> rows(100);
    for (std::size_t i = 0; i < 100; ++i) {
        x(i, 0) = double(i);
        // Squared loss towards a step: grad = pred - y with pred = 0.
        grad[i] = i < 50 ? -1.0 : -5.0;
        rows[i] = i;
    }
    TreeConfig cfg;
    cfg.maxDepth = 1;
    cfg.lambda = 0.0;
    RegressionTree tree;
    tree.fit(x, grad, hess, rows, cfg);
    EXPECT_EQ(tree.numLeaves(), 2u);
    EXPECT_NEAR(tree.predictRow(x, 10), 1.0, 1e-9);
    EXPECT_NEAR(tree.predictRow(x, 90), 5.0, 1e-9);
}

TEST(RegressionTree, RespectsMinSamplesLeaf)
{
    Matrix x(10, 1);
    std::vector<double> grad(10), hess(10, 1.0);
    std::vector<std::size_t> rows(10);
    for (std::size_t i = 0; i < 10; ++i) {
        x(i, 0) = double(i);
        grad[i] = i == 0 ? -100.0 : 0.0; // outlier tempts a 1-row leaf
        rows[i] = i;
    }
    TreeConfig cfg;
    cfg.maxDepth = 3;
    cfg.minSamplesLeaf = 4;
    RegressionTree tree;
    tree.fit(x, grad, hess, rows, cfg);
    // No split may isolate fewer than 4 rows; with 10 rows that means
    // at most depth-1 splits at positions 4/5/6.
    EXPECT_LE(tree.numLeaves(), 2u);
}

class GbdtFitTest : public ::testing::TestWithParam<Growth>
{
};

TEST_P(GbdtFitTest, FitsAdditiveFunction)
{
    Matrix x;
    std::vector<double> y;
    makeDataset(400, [](double a, double b) { return 3 * a - 2 * b; },
                x, y, 1);
    GbdtConfig cfg = GetParam() == Growth::LevelWise
                         ? xgboostConfig()
                         : lgboostConfig();
    cfg.rounds = 150;
    Gbdt model(cfg);
    Rng rng(2);
    model.fit(x, y, rng);
    const double err = rmse(model.predict(x), y);
    EXPECT_LT(err, 0.5);
}

TEST_P(GbdtFitTest, FitsInteraction)
{
    Matrix x;
    std::vector<double> y;
    makeDataset(500, [](double a, double b) { return a * b; }, x, y, 3);
    GbdtConfig cfg = GetParam() == Growth::LevelWise
                         ? xgboostConfig()
                         : lgboostConfig();
    cfg.rounds = 200;
    Gbdt model(cfg);
    Rng rng(4);
    model.fit(x, y, rng);
    const double err = rmse(model.predict(x), y);
    EXPECT_LT(err, 0.6);
    // Ranking quality matters more than absolute fit for NAS use.
    EXPECT_GT(kendallTau(model.predict(x), y), 0.85);
}

INSTANTIATE_TEST_SUITE_P(Growths, GbdtFitTest,
                         ::testing::Values(Growth::LevelWise,
                                           Growth::LeafWise));

TEST(Gbdt, ConstantTargetGivesConstantPrediction)
{
    Matrix x(50, 2);
    Rng rng(5);
    for (double &v : x.raw())
        v = rng.uniform();
    std::vector<double> y(50, 7.5);
    Gbdt model(xgboostConfig());
    model.fit(x, y, rng);
    for (double p : model.predict(x))
        EXPECT_NEAR(p, 7.5, 1e-9);
    // Nothing to learn: no trees beyond the base score are needed.
    EXPECT_EQ(model.numTrees(), 0u);
}

TEST(Gbdt, EarlyStoppingTruncatesEnsemble)
{
    Matrix x, xv;
    std::vector<double> y, yv;
    makeDataset(200, [](double a, double) { return a; }, x, y, 6);
    makeDataset(100, [](double a, double) { return a; }, xv, yv, 7);
    GbdtConfig cfg = xgboostConfig();
    cfg.rounds = 400;
    cfg.earlyStopRounds = 5;
    Gbdt model(cfg);
    Rng rng(8);
    model.fit(x, y, rng, &xv, &yv);
    EXPECT_LT(model.numTrees(), 400u);
    EXPECT_LT(rmse(model.predict(xv), yv), 0.3);
}

TEST(Gbdt, LeafWiseRespectsLeafBudget)
{
    Matrix x;
    std::vector<double> y;
    makeDataset(300, [](double a, double b) { return a * a + b; }, x,
                y, 9);
    GbdtConfig cfg = lgboostConfig();
    cfg.tree.maxLeaves = 4;
    cfg.rounds = 5;
    Gbdt model(cfg);
    Rng rng(10);
    model.fit(x, y, rng);
    EXPECT_GT(model.numTrees(), 0u);
    // predictRow just must not crash and be finite.
    for (std::size_t i = 0; i < x.rows(); ++i)
        EXPECT_TRUE(std::isfinite(model.predictRow(x, i)));
}

TEST(Gbdt, SubsamplingStillLearns)
{
    Matrix x;
    std::vector<double> y;
    makeDataset(400, [](double a, double b) { return a + b; }, x, y,
                11);
    GbdtConfig cfg = xgboostConfig();
    cfg.subsample = 0.5;
    Gbdt model(cfg);
    Rng rng(12);
    model.fit(x, y, rng);
    EXPECT_GT(kendallTau(model.predict(x), y), 0.9);
}

namespace
{

/** Seed generator for properties that build their own inputs. */
prop::Gen<int>
seedGen()
{
    prop::Gen<int> g;
    g.sample = [](Rng &rng) { return int(rng.intIn(0, 1 << 30)); };
    return g;
}

} // namespace

TEST(PropQuant, GbdtFlatBatchMatchesRowOracle)
{
    const auto r = prop::forAll<int>(
        prop::Config::fromEnv(0xF05ED007, 20), seedGen(),
        [](int seed) -> std::optional<std::string> {
            Rng rng(std::uint64_t(seed) + 1);
            const std::size_t n = std::size_t(rng.intIn(8, 120));
            const std::size_t d = std::size_t(rng.intIn(2, 12));
            Matrix x(n, d);
            for (double &v : x.raw())
                v = rng.normal();
            std::vector<double> y(n);
            for (std::size_t i = 0; i < n; ++i)
                y[i] = x(i, 0) * 2.0 - x(i, d - 1) + rng.normal();

            gbdt::GbdtConfig cfg = rng.bernoulli(0.5)
                                       ? gbdt::xgboostConfig()
                                       : gbdt::lgboostConfig();
            cfg.rounds = std::size_t(rng.intIn(1, 25));
            gbdt::Gbdt model(cfg);
            model.fit(x, y, rng);

            const Matrix batched = model.predictBatch(x);
            for (std::size_t i = 0; i < n; ++i) {
                const double oracle = model.predictRow(x, i);
                if (batched(i, 0) != oracle) {
                    std::ostringstream msg;
                    msg.precision(17);
                    msg << "row " << i << ": flat " << batched(i, 0)
                        << " vs node-walk " << oracle;
                    return msg.str();
                }
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}
