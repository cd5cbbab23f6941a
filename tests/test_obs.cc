/**
 * @file
 * Observability-layer tests: histogram bucket math and percentiles,
 * counter correctness under parallelFor contention, span nesting and
 * thread attribution in the exported Chrome trace JSON, the disabled
 * path recording nothing, sampling-profiler attribution, and
 * same-seed fit/search being bit-identical with tracing + metrics +
 * profiling on vs off.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/hwprnas.h"
#include "nasbench/dataset.h"
#include "nasbench/space.h"
#include "search/moea.h"
#include "search/surrogate_evaluator.h"

using namespace hwpr;

namespace
{

/** RAII toggle restoring both collection switches. */
class ObsGuard
{
  public:
    ObsGuard(bool tracing, bool metrics)
        : savedTracing_(obs::tracingEnabled()),
          savedMetrics_(obs::metricsEnabled())
    {
        obs::setTracingEnabled(tracing);
        obs::setMetricsEnabled(metrics);
    }

    ~ObsGuard()
    {
        obs::setTracingEnabled(savedTracing_);
        obs::setMetricsEnabled(savedMetrics_);
    }

  private:
    bool savedTracing_;
    bool savedMetrics_;
};

/** Occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

} // namespace

TEST(ObsHistogram, BucketMath)
{
    obs::Histogram h({1.0, 10.0, 100.0});
    // Bounds are inclusive upper bounds; 4 buckets total (3 + over).
    h.record(0.5);   // bucket 0
    h.record(1.0);   // bucket 0 (inclusive)
    h.record(1.5);   // bucket 1
    h.record(10.0);  // bucket 1
    h.record(99.0);  // bucket 2
    h.record(100.5); // overflow
    h.record(1e9);   // overflow

    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_DOUBLE_EQ(h.sum(),
                     0.5 + 1.0 + 1.5 + 10.0 + 99.0 + 100.5 + 1e9);
    EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 7.0);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(h.bucketCount(i), 0u);
}

TEST(ObsHistogram, PercentileInterpolation)
{
    obs::Histogram h({10.0, 20.0, 40.0});
    for (int i = 0; i < 100; ++i)
        h.record(15.0); // all land in (10, 20]
    // Linear interpolation inside the bucket: the quantile position
    // maps onto [lo, hi).
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 15.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 19.9);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 20.0);
    // Out-of-range q clamps instead of misbehaving.
    EXPECT_DOUBLE_EQ(h.percentile(1.7), 20.0);

    obs::Histogram first({10.0, 20.0});
    first.record(5.0); // bucket 0: lo = min(0, bound) = 0
    EXPECT_DOUBLE_EQ(first.percentile(0.5), 5.0);

    obs::Histogram over({10.0, 20.0});
    over.record(1e9); // overflow clamps to the last finite bound
    EXPECT_DOUBLE_EQ(over.percentile(0.5), 20.0);

    obs::Histogram empty({10.0});
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
}

TEST(ObsHistogram, OverflowBucketClampsEveryPercentile)
{
    // Regression test for the overflow-bucket edge: samples past the
    // last bucket bound must clamp every percentile to that bound —
    // never extrapolate beyond it, never go infinite. This is the
    // shape a latency histogram takes when a stall pushes the tail
    // past the largest configured bound.
    obs::Histogram h({100.0, 1000.0});
    for (int i = 0; i < 10000; ++i)
        h.record(1e12); // all mass in the overflow bucket
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const double p = h.percentile(q);
        EXPECT_TRUE(std::isfinite(p)) << "q=" << q;
        EXPECT_DOUBLE_EQ(p, 1000.0) << "q=" << q;
    }

    // Mixed mass: p50 interpolates inside a finite bucket while the
    // tail percentiles clamp, and no percentile exceeds the edge.
    obs::Histogram mixed({100.0, 1000.0});
    for (int i = 0; i < 60; ++i)
        mixed.record(50.0); // bucket 0
    for (int i = 0; i < 40; ++i)
        mixed.record(5e9); // overflow
    EXPECT_LE(mixed.percentile(0.5), 100.0);
    EXPECT_DOUBLE_EQ(mixed.percentile(0.99), 1000.0);
    EXPECT_DOUBLE_EQ(mixed.percentile(1.0), 1000.0);

    // The snapshot's embedded p99 honours the same clamp (serve
    // exposes these via /stats).
    auto &reg = obs::Registry::global();
    obs::Histogram &snap_h =
        reg.histogram("test.obs.overflow_hist", {100.0, 1000.0});
    snap_h.reset();
    for (int i = 0; i < 100; ++i)
        snap_h.record(1e12);
    const json::Value snap = json::parse(reg.snapshotJson());
    const json::Value *hist =
        snap.find("histograms")->find("test.obs.overflow_hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->numberOr("p99", -1.0), 1000.0);
    snap_h.reset();
}

TEST(ObsRegistry, SnapshotEmbedsPercentilesInSortedKeyOrder)
{
    auto &reg = obs::Registry::global();
    obs::Histogram &h =
        reg.histogram("test.obs.pctl_hist", {10.0, 20.0});
    h.reset();
    for (int i = 0; i < 10; ++i)
        h.record(15.0);
    const std::string json = reg.snapshotJson();
    const auto at = json.find("\"test.obs.pctl_hist\"");
    ASSERT_NE(at, std::string::npos);
    // Percentile summaries ride along with count/sum/mean. Numbers
    // serialize with %.17g (round-trip exact, not pretty), so read
    // them back through the parser rather than string-matching.
    const json::Value snap = json::parse(json);
    const json::Value *hist =
        snap.find("histograms")->find("test.obs.pctl_hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->numberOr("p50", 0.0), 15.0);
    EXPECT_NEAR(hist->numberOr("p90", 0.0), 19.0, 1e-9);
    EXPECT_NEAR(hist->numberOr("p99", 0.0), 19.9, 1e-9);
    EXPECT_LT(json.find("\"count\"", at), json.find("\"p50\"", at));
    EXPECT_LT(json.find("\"p50\"", at), json.find("\"p90\"", at));

    // std::map-backed registry: snapshots render keys sorted, so two
    // snapshots of the same state are textually identical.
    reg.counter("test.obs.order_a").add();
    reg.counter("test.obs.order_b").add();
    const std::string two = reg.snapshotJson();
    EXPECT_LT(two.find("\"test.obs.order_a\""),
              two.find("\"test.obs.order_b\""));
    EXPECT_EQ(two, reg.snapshotJson());
}

TEST(ObsRegistry, FindOrCreateAndSnapshot)
{
    auto &reg = obs::Registry::global();
    obs::Counter &c = reg.counter("test.obs.counter");
    c.reset();
    c.add(3);
    // Same name must resolve to the same metric.
    EXPECT_EQ(&reg.counter("test.obs.counter"), &c);
    EXPECT_EQ(reg.counterValue("test.obs.counter"), 3u);
    EXPECT_EQ(reg.counterValue("test.obs.never_registered"), 0u);

    reg.gauge("test.obs.gauge").set(2.5);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("test.obs.gauge"), 2.5);

    obs::Histogram &h =
        reg.histogram("test.obs.hist", {1.0, 2.0});
    h.reset();
    h.record(1.5);
    EXPECT_EQ(reg.findHistogram("test.obs.hist"), &h);
    EXPECT_EQ(reg.findHistogram("test.obs.nope"), nullptr);

    const std::string json = reg.snapshotJson();
    EXPECT_NE(json.find("\"test.obs.counter\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.gauge\": 2.5"), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.hist\""), std::string::npos);
    // The non-empty bucket renders as [upper_bound, count].
    EXPECT_NE(json.find("[2, 1]"), std::string::npos);
}

TEST(ObsCounter, CorrectUnderParallelForContention)
{
    ObsGuard guard(false, true);
    obs::Counter &c =
        obs::Registry::global().counter("test.obs.contended");
    c.reset();
    obs::Histogram &h = obs::Registry::global().histogram(
        "test.obs.contended_hist", {1e12});
    h.reset();

    constexpr std::size_t kIters = 20000;
    ExecContext::global().pool->parallelFor(
        0, kIters, 1, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
                c.add();
                h.record(1.0);
            }
        });
    EXPECT_EQ(c.value(), kIters);
    EXPECT_EQ(h.count(), kIters);
    EXPECT_EQ(h.bucketCount(0), kIters);
    EXPECT_DOUBLE_EQ(h.sum(), double(kIters));
}

TEST(ObsTrace, SpanNestingAndThreadAttribution)
{
    obs::clearTrace();
    ObsGuard guard(true, false);
    obs::setThreadName("test-main");

    {
        HWPR_SPAN("outer", {{"x", 1.0}});
        {
            HWPR_SPAN("inner");
        }
        // parallelFor may fan chunks out to pool workers or run the
        // whole range inline (single-thread pool); either way every
        // invocation records into the calling thread's own buffer.
        ExecContext::global().pool->parallelFor(
            0, 4, 1, [&](std::size_t, std::size_t) {
                HWPR_SPAN("chunk");
            });
    }
    // A span from an explicit second thread must land in a separate
    // per-thread buffer and render in its own tid lane.
    std::thread([] {
        obs::setThreadName("test-worker");
        HWPR_SPAN("worker_span");
    }).join();

    EXPECT_GE(obs::traceEventCount(), 4u);
    const std::string json = obs::traceJson();

    // Parseable header/footer and metadata for the named threads.
    EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"test-main\""), std::string::npos);
    EXPECT_NE(json.find("\"test-worker\""), std::string::npos);

    // Complete events with our names and the span attribute.
    EXPECT_EQ(countOf(json, "\"name\": \"outer\""), 1u);
    EXPECT_EQ(countOf(json, "\"name\": \"inner\""), 1u);
    EXPECT_GE(countOf(json, "\"name\": \"chunk\""), 1u);
    EXPECT_EQ(countOf(json, "\"name\": \"worker_span\""), 1u);
    EXPECT_NE(json.find("\"args\": {\"x\": 1"), std::string::npos);

    // Nesting: inner's [ts, ts+dur] interval must sit inside outer's.
    auto field = [&](const std::string &name, const char *key) {
        const auto at = json.find("\"name\": \"" + name + "\"");
        EXPECT_NE(at, std::string::npos);
        const std::string k = std::string("\"") + key + "\": ";
        const auto kp = json.find(k, at);
        EXPECT_NE(kp, std::string::npos);
        return std::strtod(json.c_str() + kp + k.size(), nullptr);
    };
    const double outer_ts = field("outer", "ts");
    const double outer_end = outer_ts + field("outer", "dur");
    const double inner_ts = field("inner", "ts");
    const double inner_end = inner_ts + field("inner", "dur");
    EXPECT_GE(inner_ts, outer_ts);
    EXPECT_LE(inner_end, outer_end);

    // Thread attribution: outer and worker_span carry different tids
    // (tid precedes name within an event, so search backwards).
    auto tidOf = [&](const std::string &name) {
        const auto at = json.find("\"name\": \"" + name + "\"");
        EXPECT_NE(at, std::string::npos);
        const std::string k = "\"tid\": ";
        const auto kp = json.rfind(k, at);
        EXPECT_NE(kp, std::string::npos);
        return std::strtod(json.c_str() + kp + k.size(), nullptr);
    };
    EXPECT_NE(tidOf("outer"), tidOf("worker_span"));

    obs::clearTrace();
}

TEST(ObsTrace, SpanArgAttachesLateAttributes)
{
    obs::clearTrace();
    ObsGuard guard(true, false);
    {
        obs::Span span("late_args", {{"known", 1.0}});
        span.arg("late", 42.0);
        span.arg("known", 2.0); // overwrite
    }
    const std::string json = obs::traceJson();
    EXPECT_NE(json.find("\"late\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"known\": 2"), std::string::npos);
    EXPECT_EQ(json.find("\"known\": 1,"), std::string::npos);
    obs::clearTrace();
}

TEST(ObsDisabled, RecordsNothing)
{
    obs::clearTrace();
    ObsGuard guard(false, false);

    const std::size_t events_before = obs::traceEventCount();
    obs::Counter &c =
        obs::Registry::global().counter("test.obs.disabled");
    c.reset();
    obs::Histogram &h = obs::Registry::global().histogram(
        "test.obs.disabled_hist", {1.0});
    h.reset();

    {
        HWPR_SPAN("must_not_record", {{"x", 1.0}});
        obs::ScopedTimer timer(h); // disabled at construction
        // Guarded sites skip the registry entirely when disabled; the
        // obs-instrumented code under test follows this pattern.
        if (obs::metricsEnabled())
            c.add();
    }

    EXPECT_EQ(obs::traceEventCount(), events_before);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
}

TEST(ObsProfiler, AttributesSamplesToTheBusySpan)
{
    ASSERT_FALSE(obs::profilingEnabled());
    obs::clearProfile();
    obs::setProfileIntervalUs(200);
    obs::setProfilingEnabled(true);
    {
        HWPR_SPAN("profiler_busy");
        // Spin inside the span until the sampler has clearly ticked;
        // nothing else in this process holds a span meanwhile.
        const double t0 = obs::nowMicros();
        volatile double sink = 0.0;
        std::uint64_t needed = 25;
        while (obs::profileSampleCount() < needed &&
               obs::nowMicros() - t0 < 5e6)
            for (int i = 0; i < 1000; ++i)
                sink = sink + double(i) * 1e-9;
    }
    obs::setProfilingEnabled(false);
    ASSERT_FALSE(obs::profilingEnabled());

    const std::uint64_t total = obs::profileSampleCount();
    const std::uint64_t busy =
        obs::profileSelfSamples("profiler_busy");
    ASSERT_GE(total, 10u);
    // Sampler attribution sanity: the one busy span owns the profile.
    EXPECT_GT(double(busy), 0.9 * double(total))
        << "busy " << busy << " of " << total;

    // The armed run leaves a profile section in the snapshot, with
    // flat and top-down tables.
    const std::string json = obs::Registry::global().snapshotJson();
    EXPECT_NE(json.find("\"profile\""), std::string::npos);
    EXPECT_NE(json.find("\"profiler_busy\""), std::string::npos);
    EXPECT_NE(json.find("\"top_down\""), std::string::npos);
    EXPECT_NE(json.find("\"self_us_est\""), std::string::npos);

    obs::clearProfile();
    EXPECT_EQ(obs::profileSampleCount(), 0u);
}

TEST(ObsProfiler, NestedSpansSplitSelfAndTotal)
{
    ASSERT_FALSE(obs::profilingEnabled());
    obs::clearProfile();
    obs::setProfileIntervalUs(200);
    obs::setProfilingEnabled(true);
    {
        HWPR_SPAN("profiler_outer");
        HWPR_SPAN("profiler_inner");
        const double t0 = obs::nowMicros();
        volatile double sink = 0.0;
        while (obs::profileSampleCount() < 10 &&
               obs::nowMicros() - t0 < 5e6)
            for (int i = 0; i < 1000; ++i)
                sink = sink + double(i) * 1e-9;
    }
    obs::setProfilingEnabled(false);

    // All busy time is inside inner, so outer accrues (almost) no
    // self samples while its total covers inner's.
    const std::string json = obs::profileJson();
    EXPECT_NE(json.find("profiler_outer;profiler_inner"),
              std::string::npos);
    EXPECT_GT(obs::profileSelfSamples("profiler_inner"), 0u);
    obs::clearProfile();
}

TEST(ObsDeterminism, SameSeedFitIdenticalWithObsOnVsOff)
{
    // Recording only reads the steady clock: a same-seed fit with
    // tracing + metrics armed must produce a bit-identical loss
    // trajectory and scores.
    static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    Rng rng(77);
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201()}, oracle, 120, 80, 40, rng);

    core::HwPrNasConfig mc;
    mc.encoder.gcnHidden = 16;
    mc.encoder.lstmHidden = 16;
    mc.encoder.embedDim = 8;

    core::TrainConfig tc;
    tc.epochs = 2;
    tc.combinerEpochs = 0;

    const auto trainRecs = data.select(data.trainIdx);
    const auto valRecs = data.select(data.valIdx);
    std::vector<nasbench::Architecture> valArchs;
    for (const auto *r : valRecs)
        valArchs.push_back(r->arch);

    std::vector<double> offLosses, onLosses;
    std::vector<double> offScores, onScores;
    {
        ObsGuard guard(false, false);
        core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 5);
        model.train(trainRecs, valRecs, hw::PlatformId::EdgeGpu, tc);
        offLosses = model.valLossHistory();
        offScores = model.scoreBatch(valArchs);
    }
    {
        obs::clearTrace();
        ObsGuard guard(true, true);
        core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 5);
        model.train(trainRecs, valRecs, hw::PlatformId::EdgeGpu, tc);
        onLosses = model.valLossHistory();
        onScores = model.scoreBatch(valArchs);
    }

    ASSERT_EQ(offLosses.size(), onLosses.size());
    for (std::size_t i = 0; i < offLosses.size(); ++i)
        EXPECT_EQ(offLosses[i], onLosses[i]) << "epoch " << i;
    ASSERT_EQ(offScores.size(), onScores.size());
    for (std::size_t i = 0; i < offScores.size(); ++i)
        EXPECT_EQ(offScores[i], onScores[i]) << "arch " << i;

    // The instrumented fit must actually have recorded: epoch spans
    // in the trace, epoch timings and loss gauges in the registry.
    const std::string json = obs::traceJson();
    EXPECT_NE(json.find("\"name\": \"hwprnas.fit\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"hwprnas.fit.epoch\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"surrogate.predict_batch\""),
              std::string::npos);
    const obs::Histogram *eh = obs::Registry::global().findHistogram(
        "hwprnas.fit.epoch_us");
    ASSERT_NE(eh, nullptr);
    EXPECT_GE(eh->count(), 2u);
    EXPECT_NE(obs::Registry::global().gaugeValue(
                  "hwprnas.fit.val_loss"),
              0.0);
    obs::clearTrace();
}

namespace
{

/** Tiny shared fixture for the profiler bit-identity tests. */
struct ProfiledFitResult
{
    std::vector<double> losses;
    std::vector<double> scores;
    std::vector<std::vector<double>> searchFitness;
};

ProfiledFitResult
runFitAndSearch(bool profiled)
{
    static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    Rng rng(77);
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201()}, oracle, 120, 80, 40, rng);

    core::HwPrNasConfig mc;
    mc.encoder.gcnHidden = 16;
    mc.encoder.lstmHidden = 16;
    mc.encoder.embedDim = 8;
    core::TrainConfig tc;
    tc.epochs = 2;
    tc.combinerEpochs = 0;

    if (profiled) {
        obs::setProfileIntervalUs(500);
        obs::setProfilingEnabled(true);
    }
    ProfiledFitResult out;
    {
        core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 5);
        model.train(data.select(data.trainIdx),
                    data.select(data.valIdx), hw::PlatformId::EdgeGpu,
                    tc);
        out.losses = model.valLossHistory();
        std::vector<nasbench::Architecture> valArchs;
        for (const auto *r : data.select(data.valIdx))
            valArchs.push_back(r->arch);
        out.scores = model.scoreBatch(valArchs);

        core::SurrogateEvaluator eval(model);
        search::MoeaConfig smc;
        smc.populationSize = 12;
        smc.maxGenerations = 3;
        smc.simulatedBudgetSeconds = 0.0;
        Rng srng(9);
        out.searchFitness =
            search::Moea(smc)
                .run(search::SearchDomain::unionBenchmarks(), eval,
                     srng)
                .fitness;
    }
    if (profiled) {
        obs::setProfilingEnabled(false);
        obs::clearProfile();
    }
    return out;
}

} // namespace

TEST(ObsDeterminism, SameSeedFitAndSearchIdenticalWithProfilerOn)
{
    // The sampler only *reads* shadow stacks and the steady clock —
    // a profiled run must be bit-identical to an unprofiled one,
    // through both fit and a full surrogate-guided search.
    ASSERT_FALSE(obs::profilingEnabled());
    const ProfiledFitResult off = runFitAndSearch(false);
    const ProfiledFitResult on = runFitAndSearch(true);

    ASSERT_EQ(off.losses.size(), on.losses.size());
    for (std::size_t i = 0; i < off.losses.size(); ++i)
        EXPECT_EQ(off.losses[i], on.losses[i]) << "epoch " << i;
    ASSERT_EQ(off.scores.size(), on.scores.size());
    for (std::size_t i = 0; i < off.scores.size(); ++i)
        EXPECT_EQ(off.scores[i], on.scores[i]) << "arch " << i;
    ASSERT_EQ(off.searchFitness.size(), on.searchFitness.size());
    for (std::size_t i = 0; i < off.searchFitness.size(); ++i) {
        ASSERT_EQ(off.searchFitness[i].size(),
                  on.searchFitness[i].size());
        for (std::size_t j = 0; j < off.searchFitness[i].size(); ++j)
            EXPECT_EQ(off.searchFitness[i][j], on.searchFitness[i][j])
                << "individual " << i << " objective " << j;
    }
}
