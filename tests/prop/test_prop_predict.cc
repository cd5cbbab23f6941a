/**
 * @file
 * Property tests for the fused, plan-backed inference pipeline: for
 * every surrogate family (HW-PR-NAS, scalable, BRP-NAS, GATES, LUT,
 * dominance classifier),
 * predictBatch() over a generated batch must be *bitwise* identical
 * to querying the same architectures one at a time, invariant to the
 * global thread count (1/2/4/8 lanes), and stable under plan reuse
 * (a warm plan recycled across differently sized batches changes
 * nothing).
 *
 * Bitwise identity holds because chunk boundaries depend only on the
 * batch size, every output element owns one ascending-k accumulation
 * chain, and the test encoder dims are multiples of the activation
 * kernel's 4-lane width (see DESIGN.md "Inference hot path").
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "baselines/lut.h"
#include "common/prop.h"
#include "common/threadpool.h"
#include "core/batch_plan.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "core/surrogate.h"
#include "nasbench/dataset.h"
#include "prop_gens.h"

using namespace hwpr;

namespace
{

/** One fitted surrogate family under test. */
struct Family
{
    std::string name;
    std::unique_ptr<core::Surrogate> model;
};

const nasbench::SampledDataset &
propData()
{
    static const nasbench::SampledDataset data = [] {
        static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
        Rng rng(97);
        return nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            260, 180, 40, rng);
    }();
    return data;
}

/**
 * All six families, fitted once on the tiny dataset. Encoder dims
 * are multiples of 4 on purpose: the elementwise activation kernel
 * runs 4 doubles per lane, so rows of a (n x cols) panel only share
 * the single-row lane phase when cols % 4 == 0 — which is what makes
 * batched-vs-scalar identity exact rather than approximate.
 */
const std::vector<Family> &
families()
{
    static const std::vector<Family> fams = [] {
        core::EncoderConfig enc;
        enc.gcnHidden = 16;
        enc.lstmHidden = 16;
        enc.embedDim = 8;

        core::TrainConfig quick;
        quick.epochs = 4;
        quick.combinerEpochs = 2;
        quick.learningRate = 2e-3;

        const auto &data = propData();
        core::SurrogateDataset sd;
        sd.train = data.select(data.trainIdx);
        sd.val = data.select(data.valIdx);
        sd.platform = hw::PlatformId::EdgeGpu;
        ExecContext ctx = ExecContext::global().withSeed(5);

        core::PredictorTrainConfig pquick;
        pquick.epochs = 4;
        pquick.lr = 2e-3;

        std::vector<Family> out;

        core::HwPrNasConfig mc;
        mc.encoder = enc;
        auto hwpr = std::make_unique<core::HwPrNas>(
            mc, nasbench::DatasetId::Cifar10, 11);
        hwpr->setFitConfig(quick);
        hwpr->fit(sd, ctx);
        out.push_back({"hwprnas", std::move(hwpr)});

        core::ScalableConfig sc;
        sc.encoder = enc;
        auto scalable = std::make_unique<core::ScalableHwPrNas>(
            sc, nasbench::DatasetId::Cifar10, 12);
        scalable->setFitConfig(quick);
        scalable->fit(sd, ctx);
        out.push_back({"scalable", std::move(scalable)});

        auto brp = std::make_unique<baselines::BrpNas>(
            enc, nasbench::DatasetId::Cifar10, 13);
        brp->train(sd.train, sd.val, sd.platform, pquick);
        out.push_back({"brpnas", std::move(brp)});

        auto gates = std::make_unique<baselines::Gates>(
            enc, nasbench::DatasetId::Cifar10, 14);
        gates->train(sd.train, sd.val, sd.platform, pquick);
        out.push_back({"gates", std::move(gates)});

        auto lut = std::make_unique<baselines::LatencyLut>(
            nasbench::DatasetId::Cifar10, hw::PlatformId::EdgeGpu);
        lut->fit(sd, ctx);
        out.push_back({"lut", std::move(lut)});

        core::DominanceConfig dc;
        dc.encoder = enc;
        dc.headHidden = {16, 8};
        dc.referenceSize = 24;
        dc.maxPairsPerEpoch = 3000;
        dc.maxValPairs = 500;
        auto dom = std::make_unique<core::DominanceSurrogate>(
            dc, nasbench::DatasetId::Cifar10, 15);
        core::TrainConfig dquick;
        dquick.epochs = 3;
        dquick.patience = 3;
        dquick.batchSize = 64;
        dom->train(sd.train, sd.val, sd.platform, dquick);
        out.push_back({"dominance", std::move(dom)});
        return out;
    }();
    return fams;
}

/**
 * A batch of architectures from either space. Sizes reach past the
 * 16-row chunk grain so multi-chunk plans are exercised; shrinking
 * drops one element at a time.
 */
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
            cand.reserve(batch.size() - 1);
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

/** Bitwise comparison; returns a message on the first mismatch. */
std::optional<std::string>
expectSameBits(const std::string &family, const Matrix &a,
               const Matrix &b, const char *what)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return family + ": " + what + ": shape mismatch";
    for (std::size_t i = 0; i < a.raw().size(); ++i)
        if (a.raw()[i] != b.raw()[i]) {
            std::ostringstream msg;
            msg.precision(17);
            msg << family << ": " << what << ": element " << i
                << " differs: " << a.raw()[i] << " vs " << b.raw()[i];
            return msg.str();
        }
    return std::nullopt;
}

} // namespace

TEST(PropPredict, BatchedMatchesScalarBitwise)
{
    const auto r = prop::forAll<std::vector<nasbench::Architecture>>(
        prop::Config::fromEnv(0xF05ED001, 25), batchGen(), showBatch,
        [](const std::vector<nasbench::Architecture> &batch)
            -> std::optional<std::string> {
            for (const Family &fam : families()) {
                core::BatchPlan plan;
                const Matrix batched =
                    fam.model->predictBatch(batch, plan);
                Matrix singles(batched.rows(), batched.cols());
                core::BatchPlan one;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    const Matrix &row = fam.model->predictBatch(
                        std::span<const nasbench::Architecture>(
                            &batch[i], 1),
                        one);
                    for (std::size_t c = 0; c < batched.cols(); ++c)
                        singles(i, c) = row(0, c);
                }
                if (auto err = expectSameBits(
                        fam.name, batched, singles,
                        "batched vs one-at-a-time"))
                    return err;
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropPredict, PredictionsInvariantToThreadCount)
{
    const std::size_t before = ExecContext::global().threads();
    const auto r = prop::forAll<std::vector<nasbench::Architecture>>(
        prop::Config::fromEnv(0xF05ED002, 15), batchGen(), showBatch,
        [](const std::vector<nasbench::Architecture> &batch)
            -> std::optional<std::string> {
            for (const Family &fam : families()) {
                ExecContext::setGlobalThreads(1);
                core::BatchPlan plan;
                const Matrix serial =
                    fam.model->predictBatch(batch, plan);
                for (std::size_t threads : {2u, 4u, 8u}) {
                    ExecContext::setGlobalThreads(threads);
                    core::BatchPlan tplan;
                    const Matrix &parallel =
                        fam.model->predictBatch(batch, tplan);
                    if (auto err = expectSameBits(
                            fam.name, serial, parallel,
                            "thread-count variance"))
                        return err;
                }
            }
            return std::nullopt;
        });
    ExecContext::setGlobalThreads(before);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropPredict, WarmPlanReuseIsStable)
{
    const auto r = prop::forAll<std::vector<nasbench::Architecture>>(
        prop::Config::fromEnv(0xF05ED003, 15), batchGen(), showBatch,
        [](const std::vector<nasbench::Architecture> &batch)
            -> std::optional<std::string> {
            for (const Family &fam : families()) {
                // Cold plan, then the same plan warmed by a pass over
                // a differently sized prefix, then the full batch
                // again: all three full-batch passes must agree.
                core::BatchPlan plan;
                const Matrix cold =
                    fam.model->predictBatch(batch, plan);
                const std::size_t half = (batch.size() + 1) / 2;
                fam.model->predictBatch(
                    std::span<const nasbench::Architecture>(
                        batch.data(), half),
                    plan);
                const Matrix &warm =
                    fam.model->predictBatch(batch, plan);
                if (auto err = expectSameBits(fam.name, cold, warm,
                                              "cold vs warm plan"))
                    return err;
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}
