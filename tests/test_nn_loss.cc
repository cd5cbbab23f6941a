/**
 * @file
 * Loss-function tests: values, gradients, and the ranking semantics
 * the paper relies on (the listwise loss prefers orderings that put
 * dominant architectures first).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/gradcheck.h"
#include "nn/loss.h"

using namespace hwpr;
using namespace hwpr::nn;

TEST(MseLoss, ZeroAtTarget)
{
    Tensor pred = Tensor::param(Matrix(3, 1, {1, 2, 3}), "p");
    const Tensor loss = mseLoss(pred, {1, 2, 3});
    EXPECT_DOUBLE_EQ(loss.value()(0, 0), 0.0);
}

TEST(MseLoss, KnownValueAndGradient)
{
    Tensor pred = Tensor::param(Matrix(2, 1, {0, 0}), "p");
    Tensor loss = mseLoss(pred, {1, -1});
    EXPECT_DOUBLE_EQ(loss.value()(0, 0), 1.0);
    backward(loss);
    // d/dp_i = 2/n (p_i - t_i) = -1 and +1.
    EXPECT_DOUBLE_EQ(pred.grad()(0, 0), -1.0);
    EXPECT_DOUBLE_EQ(pred.grad()(1, 0), 1.0);
}

TEST(MseLoss, GradCheck)
{
    Rng rng(1);
    Matrix m(5, 1);
    for (double &v : m.raw())
        v = rng.normal();
    Tensor pred = Tensor::param(std::move(m), "p");
    const std::vector<double> target = {0.4, -0.2, 1.0, 0.0, 2.0};
    const double err = gradCheck(
        [&] { return mseLoss(pred, target); }, pred, 1e-6);
    EXPECT_LT(err, 1e-6);
}

TEST(HingeLoss, ZeroWhenMarginSatisfied)
{
    // Scores already ordered with gap > margin.
    Tensor s = Tensor::param(Matrix(3, 1, {3.0, 2.0, 1.0}), "s");
    const Tensor loss =
        pairwiseHingeLoss(s, {30.0, 20.0, 10.0}, 0.1);
    EXPECT_DOUBLE_EQ(loss.value()(0, 0), 0.0);
}

TEST(HingeLoss, PenalizesInvertedPairs)
{
    Tensor s = Tensor::param(Matrix(2, 1, {0.0, 1.0}), "s");
    // target says index 0 should rank higher.
    const Tensor loss = pairwiseHingeLoss(s, {2.0, 1.0}, 0.1);
    // One pair, violation = 0.1 - (0 - 1) = 1.1.
    EXPECT_NEAR(loss.value()(0, 0), 1.1, 1e-12);
}

TEST(HingeLoss, GradCheck)
{
    Rng rng(2);
    Matrix m(6, 1);
    for (double &v : m.raw())
        v = rng.normal();
    Tensor s = Tensor::param(std::move(m), "s");
    const std::vector<double> target = {5, 3, 1, 4, 2, 0};
    const double err = gradCheck(
        [&] { return pairwiseHingeLoss(s, target, 0.25); }, s, 1e-6);
    // Hinge is piecewise linear; away from kinks this is exact.
    EXPECT_LT(err, 1e-5);
}

TEST(ListMle, PrefersCorrectOrdering)
{
    // Ranks: arch0 best (rank 1), arch2 worst. Scores agreeing with
    // the ranks must give a lower loss than inverted scores.
    const std::vector<int> ranks = {1, 2, 3};
    Tensor good = Tensor::param(Matrix(3, 1, {2.0, 1.0, 0.0}), "g");
    Tensor bad = Tensor::param(Matrix(3, 1, {0.0, 1.0, 2.0}), "b");
    const double lg =
        listMleParetoLoss(good, ranks).value()(0, 0);
    const double lb = listMleParetoLoss(bad, ranks).value()(0, 0);
    EXPECT_LT(lg, lb);
}

TEST(ListMle, ShiftInvariant)
{
    const std::vector<int> ranks = {2, 1, 3, 1};
    Tensor a = Tensor::param(Matrix(4, 1, {0.3, 1.0, -0.5, 0.9}), "a");
    Tensor b = Tensor::param(
        Matrix(4, 1, {100.3, 101.0, 99.5, 100.9}), "b");
    EXPECT_NEAR(listMleParetoLoss(a, ranks).value()(0, 0),
                listMleParetoLoss(b, ranks).value()(0, 0), 1e-9);
}

TEST(ListMle, MinimumAtLargeGapsInRankOrder)
{
    // As the correctly-ordered scores separate, the loss approaches
    // the lower bound for the list (0 for fully separated lists,
    // scaled by the 1/n normalization).
    const std::vector<int> ranks = {1, 2, 3, 4};
    double prev = 1e300;
    for (double gap : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        Matrix m(4, 1);
        for (int i = 0; i < 4; ++i)
            m(i, 0) = -gap * i;
        Tensor s = Tensor::param(std::move(m), "s");
        const double loss =
            listMleParetoLoss(s, ranks).value()(0, 0);
        EXPECT_LT(loss, prev);
        prev = loss;
    }
    EXPECT_LT(prev, 0.01);
}

TEST(ListMle, GradCheck)
{
    Rng rng(3);
    Matrix m(8, 1);
    for (double &v : m.raw())
        v = rng.normal();
    Tensor s = Tensor::param(std::move(m), "s");
    const std::vector<int> ranks = {1, 1, 2, 3, 2, 1, 4, 3};
    const double err = gradCheck(
        [&] { return listMleParetoLoss(s, ranks); }, s, 1e-6);
    EXPECT_LT(err, 1e-6);
}

TEST(ListMle, GradientDescentRecoversRanking)
{
    // Optimizing scores alone with the listwise loss must converge to
    // scores ordered like the Pareto ranks (the core training signal).
    Rng rng(4);
    Matrix m(10, 1);
    for (double &v : m.raw())
        v = rng.normal(0.0, 0.01);
    Tensor s = Tensor::param(std::move(m), "s");
    const std::vector<int> ranks = {3, 1, 2, 5, 4, 1, 2, 3, 4, 5};
    for (int iter = 0; iter < 400; ++iter) {
        s.zeroGrad();
        Tensor loss = listMleParetoLoss(s, ranks);
        backward(loss);
        for (std::size_t i = 0; i < 10; ++i)
            s.valueMut()(i, 0) -= 0.1 * s.grad()(i, 0);
    }
    // Every lower-rank (more dominant) arch scores above every
    // higher-rank arch.
    for (std::size_t i = 0; i < 10; ++i)
        for (std::size_t j = 0; j < 10; ++j)
            if (ranks[i] < ranks[j]) {
                EXPECT_GT(s.value()(i, 0), s.value()(j, 0))
                    << i << " vs " << j;
            }
}

TEST(ListMle, SingletonListIsFinite)
{
    Tensor s = Tensor::param(Matrix(1, 1, {0.7}), "s");
    const Tensor loss = listMleParetoLoss(s, {1});
    EXPECT_TRUE(std::isfinite(loss.value()(0, 0)));
    backward(loss);
    EXPECT_TRUE(std::isfinite(s.grad()(0, 0)));
}
