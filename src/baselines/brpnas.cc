#include "baselines/brpnas.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "nasbench/dataset_id.h"

namespace hwpr::baselines
{

BrpNas::BrpNas(const core::EncoderConfig &enc_cfg,
               nasbench::DatasetId dataset, std::uint64_t seed)
    : encCfg_(enc_cfg), dataset_(dataset), seed_(seed)
{
}

void
BrpNas::train(const std::vector<const nasbench::ArchRecord *> &train,
              const std::vector<const nasbench::ArchRecord *> &val,
              hw::PlatformId platform,
              const core::PredictorTrainConfig &base_cfg)
{
    platform_ = platform;
    const std::size_t pidx = hw::platformIndex(platform);

    accuracy_ = std::make_unique<core::MetricPredictor>(
        core::EncodingKind::GCN, encCfg_, core::RegressorKind::Mlp,
        dataset_, seed_ ^ 0xaccull);
    core::PredictorTrainConfig acc_cfg = base_cfg;
    acc_cfg.loss = core::LossKind::MseHinge;
    accuracy_->train(
        train, val,
        [](const nasbench::ArchRecord &rec) { return rec.accuracy; },
        acc_cfg);

    latency_ = std::make_unique<core::MetricPredictor>(
        core::EncodingKind::GCN, encCfg_, core::RegressorKind::Mlp,
        dataset_, seed_ ^ 0x1a7ull);
    core::PredictorTrainConfig lat_cfg = base_cfg;
    lat_cfg.loss = core::LossKind::Mse;
    // Latencies span orders of magnitude across the union space;
    // regress log-latency (a monotone transform, so dominance
    // comparisons downstream are unaffected).
    latency_->train(
        train, val,
        [pidx](const nasbench::ArchRecord &rec) {
            return std::log(rec.latencyMs[pidx]);
        },
        lat_cfg);
}

void
BrpNas::fit(const core::SurrogateDataset &data, ExecContext &ctx)
{
    seed_ = ctx.seed;
    train(data.train, data.val, data.platform);
}

std::vector<double>
BrpNas::predictAccuracy(
    std::span<const nasbench::Architecture> a) const
{
    HWPR_CHECK(accuracy_, "predictAccuracy() before train()");
    return accuracy_->predict(a);
}

std::vector<double>
BrpNas::predictLatency(
    std::span<const nasbench::Architecture> a) const
{
    HWPR_CHECK(latency_, "predictLatency() before train()");
    std::vector<double> out = latency_->predict(a);
    for (double &v : out)
        v = std::exp(v); // back to milliseconds
    return out;
}

Matrix
BrpNas::objectivesBatch(
    std::span<const nasbench::Architecture> archs) const
{
    core::BatchPlan plan;
    return predictBatch(archs, plan);
}

const Matrix &
BrpNas::predictBatch(std::span<const nasbench::Architecture> archs,
                     core::BatchPlan &plan) const
{
    if (archs.empty()) // no-op contract: no weights touched
        return plan.prepare(0, 2);
    HWPR_CHECK(accuracy_ && latency_, "predictBatch() before train()");
    HWPR_SPAN("surrogate.predict_batch",
              {{"rows", double(archs.size())}});
    static obs::Histogram &batch_hist = obs::Registry::global()
        .histogram("surrogate.predict_batch.us");
    obs::ScopedTimer batch_timer(batch_hist);
    if (obs::metricsEnabled()) {
        static obs::Counter &rows = obs::Registry::global().counter(
            "surrogate.predict_batch.rows");
        rows.add(archs.size());
    }

    Matrix &out = plan.prepare(archs.size(), 2);
    if (accuracy_->regressor() != core::RegressorKind::Mlp ||
        latency_->regressor() != core::RegressorKind::Mlp) {
        const std::vector<double> acc = predictAccuracy(archs);
        const std::vector<double> lat = predictLatency(archs);
        for (std::size_t i = 0; i < archs.size(); ++i) {
            out(i, 0) = 100.0 - acc[i];
            out(i, 1) = lat[i];
        }
        return out;
    }

    plan.forEachChunk(
        "brpnas",
        [&](nn::PredictScratch &scratch, std::size_t i0,
            std::size_t i1) {
            const std::size_t len = i1 - i0;
            const auto sub = archs.subspan(i0, len);
            Matrix &acc = scratch.acquire(len, 1);
            accuracy_->predictChunk(sub, scratch, acc.data());
            Matrix &lat = scratch.acquire(len, 1);
            latency_->predictChunk(sub, scratch, lat.data());
            for (std::size_t r = 0; r < len; ++r) {
                out(i0 + r, 0) = 100.0 - acc(r, 0);
                // Latency was regressed in log space; back to ms.
                out(i0 + r, 1) = std::exp(lat(r, 0));
            }
        });
    return out;
}

core::SurrogateEvaluator
BrpNas::evaluator() const
{
    HWPR_CHECK(accuracy_ && latency_, "evaluator() before train()");
    return core::SurrogateEvaluator(*this);
}

bool
BrpNas::save(const std::string &path) const
{
    HWPR_CHECK(accuracy_ && latency_, "save() before train()");
    return atomicSave(path, [this](BinaryWriter &w) {
        writeHeader(w, "brpnas", 1);
        w.writeU64(encCfg_.gcnHidden);
        w.writeU64(encCfg_.gcnLayers);
        w.writeU64(encCfg_.lstmHidden);
        w.writeU64(encCfg_.lstmLayers);
        w.writeU64(encCfg_.embedDim);
        w.writeU64(encCfg_.gcnGlobalNode ? 1 : 0);
        w.writeU64(std::uint64_t(dataset_));
        w.writeU64(seed_);
        w.writeU64(std::uint64_t(platform_));
        accuracy_->saveTo(w);
        latency_->saveTo(w);
    });
}

std::unique_ptr<BrpNas>
BrpNas::load(const std::string &path)
{
    std::string body;
    if (!readVerified(path, body))
        return nullptr;
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (readHeader(r, "brpnas") != 1)
        return nullptr;

    core::EncoderConfig enc_cfg;
    enc_cfg.gcnHidden = std::size_t(r.readU64());
    enc_cfg.gcnLayers = std::size_t(r.readU64());
    enc_cfg.lstmHidden = std::size_t(r.readU64());
    enc_cfg.lstmLayers = std::size_t(r.readU64());
    enc_cfg.embedDim = std::size_t(r.readU64());
    enc_cfg.gcnGlobalNode = r.readU64() != 0;
    const std::uint64_t dataset_raw = r.readU64();
    const std::uint64_t seed = r.readU64();
    const std::uint64_t platform_raw = r.readU64();
    if (!r.ok() || dataset_raw >= nasbench::allDatasets().size() ||
        platform_raw >= hw::kNumPlatforms)
        return nullptr;

    auto model = std::make_unique<BrpNas>(
        enc_cfg, nasbench::DatasetId(dataset_raw), seed);
    model->platform_ = hw::PlatformId(platform_raw);
    model->accuracy_ = core::MetricPredictor::loadFrom(r);
    if (!model->accuracy_)
        return nullptr;
    model->latency_ = core::MetricPredictor::loadFrom(r);
    if (!model->latency_)
        return nullptr;
    return model;
}

} // namespace hwpr::baselines
