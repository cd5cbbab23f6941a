#include "baselines/gates.h"

#include <sstream>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "nasbench/dataset_id.h"

namespace hwpr::baselines
{

Gates::Gates(const core::EncoderConfig &enc_cfg,
             nasbench::DatasetId dataset, std::uint64_t seed)
    : encCfg_(enc_cfg), dataset_(dataset), seed_(seed)
{
}

void
Gates::train(const std::vector<const nasbench::ArchRecord *> &train,
             const std::vector<const nasbench::ArchRecord *> &val,
             hw::PlatformId platform,
             const core::PredictorTrainConfig &base_cfg)
{
    platform_ = platform;
    const std::size_t pidx = hw::platformIndex(platform);

    core::PredictorTrainConfig cfg = base_cfg;
    cfg.loss = core::LossKind::Hinge;
    cfg.hingeMargin = 0.1;

    accuracy_ = std::make_unique<core::MetricPredictor>(
        core::EncodingKind::GCN, encCfg_, core::RegressorKind::Mlp,
        dataset_, seed_ ^ 0x6a7e5ull);
    accuracy_->train(
        train, val,
        [](const nasbench::ArchRecord &rec) { return rec.accuracy; },
        cfg);

    latency_ = std::make_unique<core::MetricPredictor>(
        core::EncodingKind::GCN, encCfg_, core::RegressorKind::Mlp,
        dataset_, seed_ ^ 0x6a7e51ull);
    latency_->train(
        train, val,
        [pidx](const nasbench::ArchRecord &rec) {
            return rec.latencyMs[pidx];
        },
        cfg);
}

void
Gates::fit(const core::SurrogateDataset &data, ExecContext &ctx)
{
    seed_ = ctx.seed;
    train(data.train, data.val, data.platform);
}

std::vector<double>
Gates::accuracyScores(std::span<const nasbench::Architecture> a) const
{
    HWPR_CHECK(accuracy_, "accuracyScores() before train()");
    return accuracy_->predict(a);
}

std::vector<double>
Gates::latencyScores(std::span<const nasbench::Architecture> a) const
{
    HWPR_CHECK(latency_, "latencyScores() before train()");
    return latency_->predict(a);
}

Matrix
Gates::objectivesBatch(
    std::span<const nasbench::Architecture> archs) const
{
    core::BatchPlan plan;
    return predictBatch(archs, plan);
}

const Matrix &
Gates::predictBatch(std::span<const nasbench::Architecture> archs,
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
        const std::vector<double> acc = accuracyScores(archs);
        const std::vector<double> lat = latencyScores(archs);
        for (std::size_t i = 0; i < archs.size(); ++i) {
            out(i, 0) = -acc[i]; // maximize accuracy score
            out(i, 1) = lat[i];
        }
        return out;
    }

    plan.forEachChunk(
        "gates",
        [&](nn::PredictScratch &scratch, std::size_t i0,
            std::size_t i1) {
            const std::size_t len = i1 - i0;
            const auto sub = archs.subspan(i0, len);
            Matrix &acc = scratch.acquire(len, 1);
            accuracy_->predictChunk(sub, scratch, acc.data());
            Matrix &lat = scratch.acquire(len, 1);
            latency_->predictChunk(sub, scratch, lat.data());
            for (std::size_t r = 0; r < len; ++r) {
                out(i0 + r, 0) = -acc(r, 0); // maximize accuracy score
                out(i0 + r, 1) = lat(r, 0);
            }
        });
    return out;
}

core::SurrogateEvaluator
Gates::evaluator() const
{
    HWPR_CHECK(accuracy_ && latency_, "evaluator() before train()");
    return core::SurrogateEvaluator(*this);
}

bool
Gates::save(const std::string &path) const
{
    HWPR_CHECK(accuracy_ && latency_, "save() before train()");
    return atomicSave(path, [this](BinaryWriter &w) {
        writeHeader(w, "gates", 1);
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

std::unique_ptr<Gates>
Gates::load(const std::string &path)
{
    std::string body;
    if (!readVerified(path, body))
        return nullptr;
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (readHeader(r, "gates") != 1)
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

    auto model = std::make_unique<Gates>(
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
