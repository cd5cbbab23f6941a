/**
 * @file
 * Property tests for the dominance-classifier surrogate family:
 *  - dominanceLabel() agrees with a from-scratch oracle over
 *    pareto::dominates on generated objective pairs, including the
 *    NaN worst-rank convention;
 *  - predictBatch() is bitwise identical to one-at-a-time queries
 *    (thread-count invariance and warm-plan reuse are checked for
 *    all six families in test_prop_predict.cc);
 *  - a save/load round trip reproduces predictions and dominance
 *    counts bit for bit.
 *
 * The fixture's encoder dims are multiples of 4 (activation kernel
 * lane width) — the same condition the other families rely on for
 * exact batched-vs-scalar identity.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/prop.h"
#include "core/batch_plan.h"
#include "core/dominance.h"
#include "nasbench/dataset.h"
#include "pareto/pareto.h"
#include "prop_gens.h"

using namespace hwpr;

namespace
{

const nasbench::SampledDataset &
propData()
{
    static const nasbench::SampledDataset data = [] {
        static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
        Rng rng(73);
        return nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            200, 140, 30, rng);
    }();
    return data;
}

/** One dominance classifier, fitted once on the tiny dataset. */
const core::DominanceSurrogate &
fitted()
{
    static const std::unique_ptr<core::DominanceSurrogate> model = [] {
        core::DominanceConfig cfg;
        cfg.encoder.gcnHidden = 16; // multiples of 4: lane-phase safe
        cfg.encoder.lstmHidden = 16;
        cfg.encoder.embedDim = 8;
        cfg.headHidden = {16, 8};
        cfg.referenceSize = 24;
        cfg.maxPairsPerEpoch = 3000;
        cfg.maxValPairs = 500;
        auto m = std::make_unique<core::DominanceSurrogate>(
            cfg, nasbench::DatasetId::Cifar10, 29);
        core::TrainConfig quick;
        quick.epochs = 3;
        quick.patience = 3;
        quick.batchSize = 64;
        const auto &data = propData();
        m->train(data.select(data.trainIdx),
                 data.select(data.valIdx), hw::PlatformId::EdgeGpu,
                 quick);
        return m;
    }();
    return *model;
}

/** Objective-vector pair where each coordinate may be NaN. */
using PointPair = std::pair<pareto::Point, pareto::Point>;

prop::Gen<PointPair>
pointPairGen()
{
    prop::Gen<PointPair> g;
    g.sample = [](Rng &rng) {
        const std::size_t dims = std::size_t(rng.intIn(2, 3));
        const auto point = [&](Rng &r) {
            pareto::Point p(dims);
            for (std::size_t d = 0; d < dims; ++d)
                p[d] = r.bernoulli(0.15)
                           ? std::nan("")
                           : std::floor(r.uniform() * 8.0);
            return p;
        };
        PointPair out{point(rng), point(rng)};
        // Equal pairs matter (dominance is strict); force some.
        if (rng.bernoulli(0.2))
            out.second = out.first;
        return out;
    };
    return g;
}

std::string
showPair(const PointPair &pp)
{
    std::ostringstream out;
    out.precision(17);
    out << "a=(";
    for (std::size_t d = 0; d < pp.first.size(); ++d)
        out << (d ? "," : "") << pp.first[d];
    out << ") b=(";
    for (std::size_t d = 0; d < pp.second.size(); ++d)
        out << (d ? "," : "") << pp.second[d];
    out << ")";
    return out.str();
}

/** Batch of architectures from either space (past the chunk grain). */
prop::Gen<std::vector<nasbench::Architecture>>
batchGen()
{
    prop::Gen<std::vector<nasbench::Architecture>> g;
    const prop::Gen<nasbench::Architecture> arch = proptest::archGen();
    g.sample = [arch](Rng &rng) {
        const std::size_t n = std::size_t(rng.intIn(1, 40));
        std::vector<nasbench::Architecture> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(arch.sample(rng));
        return out;
    };
    g.shrink = [](const std::vector<nasbench::Architecture> &batch) {
        std::vector<std::vector<nasbench::Architecture>> out;
        if (batch.size() <= 1)
            return out;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            std::vector<nasbench::Architecture> cand;
            for (std::size_t j = 0; j < batch.size(); ++j)
                if (j != i)
                    cand.push_back(batch[j]);
            out.push_back(std::move(cand));
        }
        return out;
    };
    return g;
}

std::string
showBatch(const std::vector<nasbench::Architecture> &batch)
{
    std::ostringstream out;
    out << batch.size() << " archs: ";
    for (std::size_t i = 0; i < batch.size(); ++i)
        out << (i ? " " : "") << proptest::showArch(batch[i]);
    return out.str();
}

std::optional<std::string>
expectSameBits(const Matrix &a, const Matrix &b, const char *what)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return std::string(what) + ": shape mismatch";
    for (std::size_t i = 0; i < a.raw().size(); ++i)
        if (a.raw()[i] != b.raw()[i]) {
            std::ostringstream msg;
            msg.precision(17);
            msg << what << ": element " << i << " differs: "
                << a.raw()[i] << " vs " << b.raw()[i];
            return msg.str();
        }
    return std::nullopt;
}

} // namespace

TEST(PropDominance, LabelMatchesParetoOracleIncludingNaN)
{
    const auto r = prop::forAll<PointPair>(
        prop::Config::fromEnv(0xD0111A8E, 400), pointPairGen(),
        showPair,
        [](const PointPair &pp) -> std::optional<std::string> {
            const pareto::Point &a = pp.first;
            const pareto::Point &b = pp.second;
            const auto hasNan = [](const pareto::Point &p) {
                for (const double v : p)
                    if (std::isnan(v))
                        return true;
                return false;
            };
            // Oracle: the worst-rank convention of pareto::paretoRanks
            // spelled out — a NaN point shares one rank strictly worse
            // than every finite point, so it dominates nothing (not
            // even another NaN point), a finite point dominates every
            // NaN point, and finite pairs follow pareto::dominates.
            bool want;
            if (hasNan(a))
                want = false;
            else if (hasNan(b))
                want = true;
            else
                want = pareto::dominates(a, b);
            const bool got = core::dominanceLabel(a, b);
            if (got != want) {
                std::ostringstream msg;
                msg << "label " << got << " != oracle " << want;
                return msg.str();
            }
            // Strictness: nothing ever dominates itself.
            if (core::dominanceLabel(a, a))
                return std::string("a dominates itself");
            // Antisymmetry on the dominating side.
            if (got && core::dominanceLabel(b, a))
                return std::string("both directions dominate");
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropDominance, BatchedMatchesScalarBitwise)
{
    const core::DominanceSurrogate &model = fitted();
    const auto r = prop::forAll<std::vector<nasbench::Architecture>>(
        prop::Config::fromEnv(0xD0111A8F, 20), batchGen(), showBatch,
        [&](const std::vector<nasbench::Architecture> &batch)
            -> std::optional<std::string> {
            core::BatchPlan plan;
            const Matrix batched = model.predictBatch(batch, plan);
            Matrix singles(batched.rows(), batched.cols());
            core::BatchPlan one;
            for (std::size_t i = 0; i < batch.size(); ++i) {
                const Matrix &row = model.predictBatch(
                    std::span<const nasbench::Architecture>(
                        &batch[i], 1),
                    one);
                singles(i, 0) = row(0, 0);
            }
            if (auto err = expectSameBits(
                    batched, singles, "batched vs one-at-a-time"))
                return err;
            // scoreBatch is the same pipeline behind a local plan.
            const std::vector<double> scores = model.scoreBatch(batch);
            for (std::size_t i = 0; i < batch.size(); ++i)
                if (scores[i] != batched(i, 0))
                    return std::string(
                        "scoreBatch diverges from predictBatch");
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropDominance, CheckpointRoundTripIsBitExact)
{
    const core::DominanceSurrogate &model = fitted();
    const std::string path =
        ::testing::TempDir() + "prop_dominance.ckpt";
    ASSERT_TRUE(model.save(path));
    const auto loaded = core::DominanceSurrogate::load(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->name(), "Dominance Classifier");
    EXPECT_EQ(loaded->platform(), model.platform());
    EXPECT_EQ(loaded->referenceArchs().size(),
              model.referenceArchs().size());

    const auto r = prop::forAll<std::vector<nasbench::Architecture>>(
        prop::Config::fromEnv(0xD0111A91, 15), batchGen(), showBatch,
        [&](const std::vector<nasbench::Architecture> &batch)
            -> std::optional<std::string> {
            core::BatchPlan pa, pb;
            const Matrix want = model.predictBatch(batch, pa);
            const Matrix got = loaded->predictBatch(batch, pb);
            if (auto err = expectSameBits(want, got,
                                          "loaded vs original"))
                return err;
            // The dominance-count path the MOEA consumes survives
            // the round trip too.
            core::BatchPlan ca, cb;
            const auto wantCounts = model.dominanceCounts(batch, ca);
            const auto gotCounts =
                loaded->dominanceCounts(batch, cb);
            if (wantCounts != gotCounts)
                return std::string("dominance counts diverge");
            for (const double c : wantCounts)
                if (c < 0.0 || c >= double(batch.size()))
                    return std::string("count out of range");
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
    std::remove(path.c_str());
}
