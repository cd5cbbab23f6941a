/**
 * @file
 * perfbench — the repository benchmark. One binary runs one workload
 * from a seed and prints, as its last stdout line, one JSON object
 * with the correctness verdict, the operations attempted and failed,
 * and the metrics: the end-to-end ones with --trace 0, the per-layer
 * ones with --trace 1.
 *
 * Every workload walks the user path `hwpr train` -> checkpoint ->
 * `hwpr search` -> one `hwpr-serve` request stream, by calling the
 * libraries' public functions, so every end-to-end metric exists on
 * every workload. A workload decides where its measured seconds go:
 *
 *   train          repeated HwPrNas::train of the CLI recipe
 *   search         repeated Moea::run driven by HW-PR-NAS
 *   search_vector  repeated Moea::run driven by BRP-NAS (objective
 *                  vectors, so Pareto ranking runs every generation);
 *                  this workload trains and serves BRP-NAS throughout
 *   serve          the open-loop serving procedure, with more
 *                  requests per rate
 *
 * The phases a workload does not measure run once at their minimum
 * size. Timings are medians over the repetitions a run makes.
 *
 * Usage (normally through run.py, which builds this binary first):
 *   perfbench --workload search --seed 1 --seconds 10 --trace 0
 *             --workdir DIR
 */

#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/brpnas.h"
#include "common/json.h"
#include "common/obs.h"
#include "common/obsdiff.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "core/batch_plan.h"
#include "core/hwprnas.h"
#include "core/surrogate.h"
#include "nasbench/dataset.h"
#include "pareto/pareto.h"
#include "search/domain.h"
#include "search/evaluator.h"
#include "search/moea.h"
#include "search/report.h"
#include "serve/proto.h"
#include "serve/server.h"

#include "loadgen.h"
#include "stats.h"

using namespace hwpr;

namespace perfbench
{
namespace
{

// ---------------------------------------------------------------------
// The recipe: `hwpr train --samples 400 --epochs 10` (CLI defaults
// otherwise) and `hwpr search --pop 100 --gens 50`.
// ---------------------------------------------------------------------

constexpr nasbench::DatasetId kDataset = nasbench::DatasetId::Cifar10;
constexpr hw::PlatformId kPlatform = hw::PlatformId::EdgeGpu;
constexpr std::size_t kSamples = 400;
constexpr std::size_t kTrainRows = 240;
constexpr std::size_t kValRows = 80;
constexpr std::size_t kEpochs = 10;
constexpr double kLearningRate = 1e-3;
constexpr std::size_t kPopulation = 100;
constexpr std::size_t kGenerations = 50;

/**
 * Threads of the global pool for every timed phase, serving included.
 * On the 4-vCPU virtual machine this benchmark was sized on, the host
 * preempts vCPUs at random and a parallel barrier waits for the
 * slowest one: the interquartile range over median of `hwpr search`
 * wall time was 6.6% at 1 thread, 17.7% at 2 (25 runs each) and 38%
 * at 4 (64 runs). The multi-thread costs are still measured, as the
 * per-layer core.predict_us.*.t4 numbers.
 */
constexpr std::size_t kPoolThreads = 1;

/** Set-up repetitions per run (setup_s is their median): five when
 *  set-up only builds the dataset, three when it also trains. */
constexpr std::size_t kCheapSetupReps = 5;
constexpr std::size_t kTrainingSetupReps = 3;

/** Serving: the traffic mix and the rates it is offered at. */
constexpr double kLightQps = 200.0;
/** The one-thread server saturates near 600-800 req/s of this mix. */
constexpr double kHeavyQps = 300.0;
constexpr std::size_t kMinRequestsPerRate = 1000;
constexpr std::size_t kConnections = 4;
constexpr double kRankShare = 0.5;
constexpr double kBatchRequestShare = 0.1;
constexpr std::size_t kBatchRequestArchs = 16;
/** Share of requests whose answers are checked against direct calls. */
constexpr double kVerifyShare = 0.03;
/** Seconds after the last due time before unanswered requests fail. */
constexpr double kGraceSec = 10.0;
/** A burst offered far above capacity measures saturation throughput. */
constexpr std::size_t kSaturationRequests = 2000;
constexpr double kSaturationQps = 5000.0;
/** Ladder rungs above the light and heavy rates, which are its first
 *  two rungs. */
const std::vector<double> kLadderQps = {400, 500, 600, 700, 800, 1000, 1200};

/** Fixed hypervolume reference: nadir of a seeded random cloud. */
constexpr std::uint64_t kReferenceSeed = 424200;
constexpr std::size_t kReferenceCloud = 2000;

const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "train_samples_per_s",
    "search_evals_per_s",
    "serve_saturation_qps",
};

/** Per-layer metrics, plus the end-to-end quantities whose spread over
 *  seeds is too wide to bound on the machine this was sized on (see
 *  README.md); the traced pass reports those. */
const std::vector<std::string> kPerLayer = {
    "peak_rss_mb",
    "train_tau",
    "search_hv",
    "serve_p50_us.light",
    "serve_p99_us.light",
    "serve_p50_us.heavy",
    "serve_p99_us.heavy",
    "serve_max_qps",
    "core.predict_us.b1.t1",
    "core.predict_us.b1.t4",
    "core.predict_us.b16.t1",
    "core.predict_us.b16.t4",
    "core.predict_us.b100.t1",
    "core.predict_us.b100.t4",
    "core.predict_us.b256.t1",
    "core.predict_us.b256.t4",
    "core.encode_self_us",
    "core.fused_pass_self_us",
    "nn.gemm_ab_self_us",
    "nn.gemm_atb_self_us",
    "nn.gemm_abt_self_us",
    "nn.gemm_ab.gflop",
    "nn.gemm_atb.gflop",
    "nn.gemm_abt.gflop",
    "core.fit_s",
    "core.fit_epoch_ms",
    "core.fit_combiner_s",
    "core.save_ms",
    "core.load_ms",
    "search.eval_s",
    "search.moea_self_s",
    "search.eval_calls",
    "search.eval_rows",
    "search.repeat_ratio",
    "pareto.ranks_us.n200",
    "pareto.hv_ms",
    "core.rank_cache.hit_ratio",
    "serve.parse_us",
    "serve.server_mean_us",
    "serve.batch_rows_mean",
    "serve.errors",
    "serve.gen_lag_p99_us",
    "common.pool_wait_us",
    "common.pool_exec_us",
    "trace.named_share",
    "trace.overhead_pct",
};

enum class Workload
{
    Train,
    Search,
    SearchVector,
    Serve,
};

/** The surrogate family a workload trains, searches with and serves. */
enum class Family
{
    HwPrNas,
    BrpNas,
};

struct Options
{
    Workload workload = Workload::Train;
    std::string workloadName;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;
};

double
nowSec()
{
    return obs::nowMicros() * 1e-6;
}

std::size_t
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
threadCpuUs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e6 + double(ts.tv_nsec) * 1e-3;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameBits(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            if (!sameBits(a(i, j), b(i, j)))
                return false;
    return true;
}

// ---------------------------------------------------------------------
// Result accounting
// ---------------------------------------------------------------------

class Report
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics_[name] = {value, unit};
    }

    /** Set the median of @p samples and log their quartiles. */
    void
    setMedian(const std::string &name, const std::vector<double> &samples,
              const std::string &unit)
    {
        set(name, median(samples), unit);
        if (samples.size() < 2)
            return;
        const Quartiles q = quartiles(samples);
        std::cerr << "perfbench: " << name << " over " << samples.size()
                  << " samples: quartiles " << q.q1 << " " << q.q2 << " "
                  << q.q3 << " " << unit << "\n";
    }

    /** One correctness check: an attempted operation that may fail. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
    }

    /** Operations of the workload itself (trains, searches, requests). */
    void
    ops(std::size_t attempted, std::size_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    /** The result line, or "" when a listed metric was not measured. */
    std::string
    resultLine(const std::vector<std::string> &names) const
    {
        std::ostringstream os;
        os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
           << ", \"attempted\": " << attempted_
           << ", \"failed\": " << failed_ << ", \"metrics\": {";
        for (std::size_t i = 0; i < names.size(); ++i) {
            const auto it = metrics_.find(names[i]);
            if (it == metrics_.end() || !std::isfinite(it->second.first)) {
                std::cerr << "perfbench: metric " << names[i]
                          << " was not measured\n";
                return "";
            }
            char num[40];
            std::snprintf(num, sizeof(num), "%.17g", it->second.first);
            os << (i ? ", " : "") << "\"" << names[i]
               << "\": {\"value\": " << num << ", \"unit\": \""
               << it->second.second << "\"}";
        }
        os << "}}";
        return os.str();
    }

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Dataset, training, checkpoints
// ---------------------------------------------------------------------

/** The seed's 400 union architectures, measured and split 240/80/80. */
nasbench::SampledDataset
buildDataset(std::uint64_t seed)
{
    HWPR_SPAN("bench.dataset");
    nasbench::Oracle oracle(kDataset);
    Rng rng(seed);
    return nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
        kSamples, kTrainRows, kValRows, rng);
}

std::vector<nasbench::Architecture>
archsOf(const std::vector<const nasbench::ArchRecord *> &recs)
{
    std::vector<nasbench::Architecture> out;
    for (const auto *r : recs)
        out.push_back(r->arch);
    return out;
}

struct Trained
{
    std::unique_ptr<core::Surrogate> model;
    double trainSec = 0.0;
    /** Training rows x epochs run (x predictors for BRP-NAS). */
    double rowEpochs = 0.0;
    /** Equal across same-seed trainings: the validation-loss history
     *  (HW-PR-NAS) or the validation predictions (BRP-NAS). */
    std::vector<double> fingerprint;
};

Trained
trainFamily(Family family, const nasbench::SampledDataset &data,
            std::uint64_t seed)
{
    const auto train = data.select(data.trainIdx);
    const auto val = data.select(data.valIdx);
    Trained t;
    if (family == Family::HwPrNas) {
        auto m = std::make_unique<core::HwPrNas>(core::HwPrNasConfig{},
                                                 kDataset, seed);
        core::TrainConfig tc;
        tc.epochs = kEpochs;
        tc.learningRate = kLearningRate;
        const double t0 = nowSec();
        {
            HWPR_SPAN("bench.train");
            m->train(train, val, kPlatform, tc);
        }
        t.trainSec = nowSec() - t0;
        t.fingerprint = m->valLossHistory();
        t.rowEpochs = double(train.size() * m->valLossHistory().size());
        t.model = std::move(m);
    } else {
        auto m = std::make_unique<baselines::BrpNas>(
            core::EncoderConfig::fast(), kDataset, seed);
        core::PredictorTrainConfig pc;
        pc.epochs = kEpochs;
        pc.patience = kEpochs; // every epoch runs: rows x epochs is exact
        pc.lr = kLearningRate;
        const double t0 = nowSec();
        {
            HWPR_SPAN("bench.train");
            m->train(train, val, kPlatform, pc);
        }
        t.trainSec = nowSec() - t0;
        t.rowEpochs = 2.0 * double(train.size() * kEpochs);
        core::BatchPlan plan;
        const Matrix &pred = m->predictBatch(archsOf(val), plan);
        for (std::size_t i = 0; i < pred.rows(); ++i)
            for (std::size_t j = 0; j < pred.cols(); ++j)
                t.fingerprint.push_back(pred(i, j));
        t.model = std::move(m);
    }
    return t;
}

bool
sameFingerprint(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct RoundTrip
{
    std::unique_ptr<core::Surrogate> model;
    double saveMs = 0.0;
    double loadMs = 0.0;
};

/** save() then load() the checkpoint; the loaded model must predict
 *  bitwise what the saved one does on the test split. */
RoundTrip
roundTrip(Family family, const core::Surrogate &model,
          const nasbench::SampledDataset &data, const std::string &path,
          Report &report)
{
    RoundTrip rt;
    double t0 = nowSec();
    bool saved;
    {
        HWPR_SPAN("bench.save");
        saved = model.save(path);
    }
    rt.saveMs = (nowSec() - t0) * 1e3;
    t0 = nowSec();
    {
        HWPR_SPAN("bench.load");
        if (family == Family::HwPrNas)
            rt.model = core::HwPrNas::load(path);
        else
            rt.model = baselines::BrpNas::load(path);
    }
    rt.loadMs = (nowSec() - t0) * 1e3;
    std::filesystem::remove(path);
    report.check(saved && rt.model != nullptr, "checkpoint save/load");
    if (!rt.model)
        return rt;
    const auto test = archsOf(data.select(data.testIdx));
    core::BatchPlan a, b;
    report.check(sameBits(model.predictBatch(test, a),
                          rt.model->predictBatch(test, b)),
                 "loaded model predicts bitwise like the saved one");
    return rt;
}

/** Kendall tau between the model's ordering of the 80 held-out archs
 *  and their negated true Pareto rank. */
double
heldOutTau(Family family, const core::Surrogate &model,
           const nasbench::SampledDataset &data)
{
    const auto test = data.select(data.testIdx);
    std::vector<pareto::Point> truth;
    for (const auto *r : test)
        truth.push_back(search::trueObjectives(*r, kPlatform));
    std::vector<double> target;
    for (const int rank : pareto::paretoRanks(truth))
        target.push_back(-double(rank));

    core::BatchPlan plan;
    const Matrix &pred = model.predictBatch(archsOf(test), plan);
    std::vector<double> score;
    if (family == Family::HwPrNas) {
        for (std::size_t i = 0; i < pred.rows(); ++i)
            score.push_back(pred(i, 0));
    } else {
        std::vector<pareto::Point> predicted;
        for (std::size_t i = 0; i < pred.rows(); ++i)
            predicted.push_back({pred(i, 0), pred(i, 1)});
        for (const int rank : pareto::paretoRanks(predicted))
            score.push_back(-double(rank));
    }
    return kendallTau(score, target);
}

// ---------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------

/** Evaluator decorator: times every evaluate() call and counts the
 *  rows whose genotype this search already evaluated. */
class TimedEvaluator final : public search::Evaluator
{
  public:
    explicit TimedEvaluator(search::Evaluator &inner) : inner_(inner) {}

    search::EvalKind kind() const override { return inner_.kind(); }
    std::string name() const override { return inner_.name(); }
    std::size_t numObjectives() const override
    {
        return inner_.numObjectives();
    }

    std::vector<pareto::Point>
    evaluate(const std::vector<nasbench::Architecture> &archs) override
    {
        const double t0 = nowSec();
        std::vector<pareto::Point> out;
        {
            HWPR_SPAN("bench.search.evaluate");
            out = inner_.evaluate(archs);
        }
        evalSec += nowSec() - t0;
        ++calls;
        for (const auto &a : archs)
            repeats.observe(a);
        lastBatch = archs;
        return out;
    }

    double evalSec = 0.0;
    std::size_t calls = 0;
    RepeatCounter<nasbench::Architecture, nasbench::ArchHash> repeats;
    std::vector<nasbench::Architecture> lastBatch;

  private:
    search::Evaluator &inner_;
};

struct SearchRun
{
    search::SearchResult result;
    double wallSec = 0.0;
    double evalSec = 0.0;
    std::size_t calls = 0;
    std::size_t rows = 0;
    double repeatRatio = 0.0;
    /** Final population plus the last evaluated offspring. */
    std::vector<nasbench::Architecture> merged;
};

SearchRun
searchOnce(const core::Surrogate &model, std::uint64_t seed)
{
    core::SurrogateEvaluator inner(model);
    TimedEvaluator eval(inner);
    search::MoeaConfig mc;
    mc.populationSize = kPopulation;
    mc.maxGenerations = kGenerations;
    mc.simulatedBudgetSeconds = 0.0;
    Rng rng(seed);
    SearchRun run;
    const double t0 = nowSec();
    {
        HWPR_SPAN("bench.search");
        run.result = search::Moea(mc).run(
            search::SearchDomain::unionBenchmarks(), eval, rng);
    }
    run.wallSec = nowSec() - t0;
    run.evalSec = eval.evalSec;
    run.calls = eval.calls;
    run.rows = eval.repeats.total();
    run.repeatRatio = eval.repeats.ratio();
    run.merged = run.result.population;
    run.merged.insert(run.merged.end(), eval.lastBatch.begin(),
                      eval.lastBatch.end());
    return run;
}

bool
sameSearch(const search::SearchResult &a, const search::SearchResult &b)
{
    if (a.population != b.population || a.fitness.size() != b.fitness.size())
        return false;
    for (std::size_t i = 0; i < a.fitness.size(); ++i)
        if (!sameFingerprint(a.fitness[i], b.fitness[i]))
            return false;
    return true;
}

const pareto::Point &
hvReference(const nasbench::Oracle &oracle)
{
    static const pareto::Point ref = [&] {
        const auto domain = search::SearchDomain::unionBenchmarks();
        Rng rng(kReferenceSeed);
        std::vector<pareto::Point> cloud;
        for (std::size_t i = 0; i < kReferenceCloud; ++i)
            cloud.push_back(search::trueObjectives(
                oracle.record(domain.sample(rng)), kPlatform));
        return pareto::nadirReference(cloud, 0.05);
    }();
    return ref;
}

double
searchHv(const search::SearchResult &result, const nasbench::Oracle &oracle)
{
    const auto front = search::measureFront(result, oracle, kPlatform);
    return pareto::hypervolume(front.front, hvReference(oracle));
}

std::uint64_t
searchSeed(std::uint64_t seed)
{
    return seed * 1000003 + 7;
}

/** Repeated same-seed searches; each must reproduce the first result
 *  exactly. */
struct SearchSeries
{
    std::vector<double> evalsPerSec;
    std::vector<double> wallSec;
};

void
searchSeries(const core::Surrogate &model, std::uint64_t seed,
             std::size_t minRuns, double seconds, SearchSeries &s,
             Report &report)
{
    search::SearchResult first;
    const double t0 = nowSec();
    for (std::size_t i = 0;
         i < minRuns || (nowSec() - t0 < seconds); ++i) {
        SearchRun run = searchOnce(model, searchSeed(seed));
        report.ops(1, 0);
        s.evalsPerSec.push_back(double(run.result.stats.evaluations) /
                                run.wallSec);
        s.wallSec.push_back(run.wallSec);
        if (i == 0)
            first = std::move(run.result);
        else
            report.check(sameSearch(run.result, first),
                         "same-seed search reproduces its population "
                         "and fitness");
    }
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/** A Server on its own poll thread. With the one-thread pool the poll
 *  thread computes every batch itself; with the load generator that
 *  makes two busy threads. */
class LiveServer
{
  public:
    explicit LiveServer(const core::Surrogate &model)
        : server_(model, serve::ServerConfig{})
    {
        std::string err;
        ok_ = server_.start(err);
        if (!ok_) {
            std::cerr << "perfbench: server start failed: " << err << "\n";
            return;
        }
        thread_ = std::thread([this] {
            {
                HWPR_SPAN("bench.serve.loop");
                server_.run();
            }
            cpuUs_ = threadCpuUs();
        });
    }

    ~LiveServer() { stop(); }

    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    void
    stop()
    {
        if (thread_.joinable()) {
            server_.requestStop();
            thread_.join();
        }
    }

    bool ok() const { return ok_; }
    int port() const { return server_.port(); }
    /** CPU time of the poll thread; valid after stop(). */
    double cpuUs() const { return cpuUs_; }

  private:
    serve::Server server_;
    bool ok_ = false;
    double cpuUs_ = 0.0;
    std::thread thread_;
};

/** Snapshot of the serve counters the `stats` op reports. */
struct ServeCounters
{
    double latencySumUs = 0.0, answers = 0.0;
    double batches = 0.0, batchRows = 0.0, errors = 0.0;

    static ServeCounters
    read()
    {
        auto &reg = obs::Registry::global();
        ServeCounters c;
        for (const char *h : {"serve.predict.us", "serve.rank.us"}) {
            if (const obs::Histogram *hist = reg.findHistogram(h)) {
                c.latencySumUs += hist->sum();
                c.answers += double(hist->count());
            }
        }
        c.batches = double(reg.counterValue("serve.batches"));
        c.batchRows = double(reg.counterValue("serve.batch_rows"));
        c.errors = double(reg.counterValue("serve.errors"));
        return c;
    }
};

/**
 * Sends phases of the traffic mix to one server. Each phase gets
 * fresh union genotypes and Poisson arrivals from the source's seeded
 * stream; a seeded share of its answers is checked bit for bit against
 * direct predictBatch (predict op) or rankBatch (rank op) calls.
 */
class TrafficSource
{
  public:
    TrafficSource(const core::Surrogate &model, const LiveServer &server,
                std::uint64_t seed, Report &report)
        : model_(model), server_(server), report_(report), rng_(seed)
    {}

    OpenLoopResult
    phase(std::size_t count, double qps)
    {
        const std::size_t begin = requests.size();
        std::vector<bool> keep(count);
        for (std::size_t i = 0; i < count; ++i) {
            requests.push_back(makeRequest(begin + i));
            keep[i] = rng_.bernoulli(kVerifyShare);
        }
        const std::uint64_t arrivals = rng_.engine()();
        OpenLoopResult r =
            runOpenLoop(server_.port(), requests, begin, count, qps,
                        arrivals, kConnections, keep, kGraceSec);
        report_.ops(r.sent, r.failed);
        for (std::size_t i = 0; i < count; ++i)
            if (keep[i])
                report_.check(answerMatches(requests[begin + i], r.kept[i]),
                              "served answer equals the direct call");
        lagUs.insert(lagUs.end(), r.lagUs.begin(), r.lagUs.end());
        return r;
    }

    /** Every request sent so far, by id. */
    std::vector<ServeRequest> requests;
    /** Generator lateness of every request sent so far. */
    std::vector<double> lagUs;

  private:
    ServeRequest
    makeRequest(std::size_t id)
    {
        static const auto domain = search::SearchDomain::unionBenchmarks();
        ServeRequest r;
        r.rank = rng_.bernoulli(kRankShare);
        const std::size_t archs =
            rng_.bernoulli(kBatchRequestShare) ? kBatchRequestArchs : 1;
        r.body = "{\"op\": \"";
        r.body += r.rank ? "rank" : "predict";
        r.body += "\", \"id\": " + std::to_string(id) + ", \"archs\": [";
        for (std::size_t a = 0; a < archs; ++a) {
            r.archs.push_back(domain.sample(rng_));
            const auto &arch = r.archs.back();
            r.body += a ? ", " : "";
            r.body += "{\"space\": \"";
            r.body += serve::spaceName(arch.space);
            r.body += "\", \"genome\": [";
            for (std::size_t g = 0; g < arch.genome.size(); ++g)
                r.body += (g ? ", " : "") + std::to_string(arch.genome[g]);
            r.body += "]}";
        }
        r.body += "]}";
        return r;
    }

    bool
    answerMatches(const ServeRequest &req, const std::string &answer)
    {
        try {
            const json::Value v = json::parse(answer);
            const json::Value *preds = v.find("predictions");
            const Matrix &want = req.rank
                                     ? model_.rankBatch(req.archs, plan_)
                                     : model_.predictBatch(req.archs, plan_);
            if (preds == nullptr || !preds->isArray() ||
                preds->asArray().size() != want.rows())
                return false;
            for (std::size_t a = 0; a < want.rows(); ++a) {
                const auto &row = preds->asArray()[a].asArray();
                if (row.size() != want.cols())
                    return false;
                for (std::size_t c = 0; c < want.cols(); ++c)
                    if (!sameBits(row[c].asNumber(), want(a, c)))
                        return false;
            }
            return true;
        } catch (const std::exception &) {
            return false;
        }
    }

    const core::Surrogate &model_;
    const LiveServer &server_;
    Report &report_;
    Rng rng_;
    core::BatchPlan plan_;
};

/** Answers per second from the first due time to the last answer. */
double
throughput(const OpenLoopResult &r)
{
    return double(r.answered) / r.wallSec;
}

/** Saturating bursts, at least @p minBursts and for @p seconds;
 *  returns each burst's throughput. */
std::vector<double>
saturationSeries(const core::Surrogate &model, const LiveServer &server,
                 std::uint64_t seed, std::size_t minBursts, double seconds,
                 Report &report)
{
    TrafficSource traffic(model, server, seed, report);
    std::vector<double> qps;
    const double t0 = nowSec();
    while (qps.size() < minBursts || nowSec() - t0 < seconds)
        qps.push_back(
            throughput(traffic.phase(kSaturationRequests, kSaturationQps)));
    return qps;
}

struct ServeOutcome
{
    OpenLoopResult light, heavy;
    double saturationQps = 0.0;
    std::vector<RungOutcome> rungs;
    double maxQps = 0.0;
    double lagP99Us = 0.0;
    double serverMeanUs = 0.0;
    double batchRowsMean = 0.0;
    double errors = 0.0;
    std::vector<ServeRequest> requests;
};

/**
 * The full serving procedure: the light and the heavy rate, one
 * saturating burst, then the ladder, whose first two rungs are the
 * light and heavy phases.
 */
ServeOutcome
serveProcedure(const core::Surrogate &model, const LiveServer &server,
               std::uint64_t seed, Report &report)
{
    ServeOutcome out;
    TrafficSource traffic(model, server, seed, report);
    const ServeCounters before = ServeCounters::read();
    out.light = traffic.phase(kMinRequestsPerRate, kLightQps);
    out.heavy = traffic.phase(kMinRequestsPerRate, kHeavyQps);
    for (const OpenLoopResult *r : {&out.light, &out.heavy})
        report.check(supportedPercentile(r->sent) >= 99.0,
                     "the p99 has ten samples beyond it");
    out.saturationQps =
        throughput(traffic.phase(kSaturationRequests, kSaturationQps));

    std::vector<double> rungQps;
    for (std::size_t i = 0; i < 2 + kLadderQps.size(); ++i) {
        OpenLoopResult extra;
        if (i >= 2)
            extra = traffic.phase(kMinRequestsPerRate, kLadderQps[i - 2]);
        const OpenLoopResult &r =
            i == 0 ? out.light : i == 1 ? out.heavy : extra;
        RungOutcome rung;
        rung.offeredQps = r.offeredQps;
        rung.sent = r.sent;
        rung.answered = r.answered;
        rung.p99Us = percentile(r.latencyUs, 99.0);
        rung.lagP99Us = percentile(r.lagUs, 99.0);
        rung.backlogGrowing = backlogGrowing(r.latencyUs);
        out.rungs.push_back(rung);
        rungQps.push_back(throughput(r));
        std::cerr << "perfbench: ladder " << rung.offeredQps
                  << " req/s: p99 " << rung.p99Us << " us, lag p99 "
                  << rung.lagP99Us << " us, answered " << rung.answered
                  << "/" << rung.sent
                  << (rung.backlogGrowing ? ", backlog growing" : "")
                  << (rungMet(rung) ? "" : " -> not met") << "\n";
        if (!rungMet(rung))
            break;
    }
    const long best = highestMetRung(out.rungs);
    out.maxQps = best >= 0 ? rungQps[std::size_t(best)] : 0.0;

    const ServeCounters after = ServeCounters::read();
    out.lagP99Us = percentile(traffic.lagUs, 99.0);
    const double answers = after.answers - before.answers;
    out.serverMeanUs =
        answers > 0 ? (after.latencySumUs - before.latencySumUs) / answers
                    : 0.0;
    const double batches = after.batches - before.batches;
    out.batchRowsMean =
        batches > 0 ? (after.batchRows - before.batchRows) / batches : 0.0;
    out.errors = after.errors - before.errors;
    out.requests = std::move(traffic.requests);
    return out;
}

// ---------------------------------------------------------------------
// Per-layer measurements
// ---------------------------------------------------------------------

/** Median microseconds of one predictBatch call of @p batch archs. */
double
predictUs(const core::Surrogate &model, std::size_t batch,
          std::size_t threads, std::uint64_t seed)
{
    ExecContext::setGlobalThreads(threads);
    const auto domain = search::SearchDomain::unionBenchmarks();
    Rng rng(seed);
    std::vector<nasbench::Architecture> archs;
    for (std::size_t i = 0; i < batch; ++i)
        archs.push_back(domain.sample(rng));
    core::BatchPlan plan;
    model.predictBatch(archs, plan); // warm the plan's scratch
    std::vector<double> us;
    const double t0 = nowSec();
    while (us.size() < 5 || (us.size() < 2000 && nowSec() - t0 < 0.25)) {
        const double s = obs::nowMicros();
        model.predictBatch(archs, plan);
        us.push_back(obs::nowMicros() - s);
    }
    ExecContext::setGlobalThreads(kPoolThreads);
    return median(us);
}

/** Median microseconds of json::parse + parseArchs over the bodies. */
double
parseUs(const std::vector<ServeRequest> &requests)
{
    std::vector<double> us;
    std::vector<nasbench::Architecture> archs;
    std::string err;
    for (const ServeRequest &r : requests) {
        const double s = obs::nowMicros();
        const json::Value v = json::parse(r.body);
        serve::parseArchs(v, archs, err);
        us.push_back(obs::nowMicros() - s);
    }
    return mean(us);
}

/** Median wall microseconds of @p fn over a short loop. */
template <class Fn>
double
medianUs(Fn fn)
{
    std::vector<double> us;
    const double t0 = nowSec();
    while (us.size() < 5 || (us.size() < 5000 && nowSec() - t0 < 0.1)) {
        const double s = obs::nowMicros();
        fn();
        us.push_back(obs::nowMicros() - s);
    }
    return median(us);
}

/**
 * Share of traced time spent inside library (non-"bench.") spans.
 * Per trace lane, busy time is the union of all spans on the lane;
 * on the server's poll thread, whose loop mostly waits in poll(), it
 * is that thread's CPU time instead.
 */
double
namedShare(const json::Value &trace, double serverCpuUs)
{
    struct Iv
    {
        double b, e;
    };
    std::map<double, std::vector<Iv>> all, lib;
    std::map<double, bool> serverLane;
    const json::Value *events = trace.find("traceEvents");
    if (events == nullptr || !events->isArray())
        return 0.0;
    for (const json::Value &e : events->asArray()) {
        if (e.stringOr("ph", "") != "X")
            continue;
        const std::string name = e.stringOr("name", "");
        const double tid = e.numberOr("tid", 0.0);
        const Iv iv{e.numberOr("ts", 0.0),
                    e.numberOr("ts", 0.0) + e.numberOr("dur", 0.0)};
        all[tid].push_back(iv);
        if (name == "bench.serve.loop")
            serverLane[tid] = true;
        if (name.rfind("bench.", 0) != 0)
            lib[tid].push_back(iv);
    }
    const auto unionUs = [](std::vector<Iv> v) {
        std::sort(v.begin(), v.end(),
                  [](const Iv &x, const Iv &y) { return x.b < y.b; });
        double total = 0.0, cb = 0.0, ce = -1.0;
        for (const Iv &iv : v) {
            if (iv.b > ce) {
                total += std::max(0.0, ce - cb);
                cb = iv.b;
                ce = iv.e;
            } else {
                ce = std::max(ce, iv.e);
            }
        }
        return total + std::max(0.0, ce - cb);
    };
    double named = 0.0, busy = 0.0;
    for (const auto &[tid, ivs] : all) {
        const double libUs = lib.count(tid) ? unionUs(lib[tid]) : 0.0;
        named += libUs;
        busy += serverLane.count(tid) ? std::max(serverCpuUs, libUs)
                                      : unionUs(ivs);
    }
    return busy > 0.0 ? named / busy : 0.0;
}

double
peakRssMb()
{
    return obs::resourceUsage().peakRssKb / 1024.0;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Context
{
    Options opt;
    Family family = Family::HwPrNas;
    nasbench::Oracle oracle{kDataset};
    Report report;

    std::string
    checkpointPath(const char *tag) const
    {
        return opt.workdir + "/" + tag + ".ckpt";
    }
};

struct SetupResult
{
    nasbench::SampledDataset data;
    Trained trained;
    std::unique_ptr<LiveServer> server;
    std::vector<double> setupSec, trainRates, saveMs, loadMs;
};

/**
 * Set-up, repeated: dataset build, and unless the workload
 * measures training itself, the recipe's training, the checkpoint
 * round-trip and (serve) the server start. The last repetition's
 * model and server are kept.
 */
SetupResult
setUp(Context &ctx)
{
    SetupResult s;
    const bool trains = ctx.opt.workload != Workload::Train;
    const std::size_t reps = trains ? kTrainingSetupReps : kCheapSetupReps;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        s.server.reset();
        const double t0 = nowSec();
        s.data = buildDataset(ctx.opt.seed);
        if (trains) {
            Trained t = trainFamily(ctx.family, s.data, ctx.opt.seed);
            RoundTrip rt = roundTrip(ctx.family, *t.model, s.data,
                                     ctx.checkpointPath("setup"),
                                     ctx.report);
            if (ctx.opt.workload == Workload::Serve && rt.model)
                s.server = std::make_unique<LiveServer>(*rt.model);
            s.trainRates.push_back(t.rowEpochs / t.trainSec);
            s.saveMs.push_back(rt.saveMs);
            s.loadMs.push_back(rt.loadMs);
            if (rep > 0)
                ctx.report.check(sameFingerprint(t.fingerprint,
                                                 s.trained.fingerprint),
                                 "same-seed training reproduces its "
                                 "history");
            t.model = std::move(rt.model);
            s.trained = std::move(t);
            ctx.report.ops(1, 0);
        }
        s.setupSec.push_back(nowSec() - t0);
        if (s.server)
            ctx.report.check(s.server->ok(), "server starts");
    }
    return s;
}

/** Repeated trainings for the train workload; same seed every time. */
void
trainSeries(Context &ctx, SetupResult &s, std::size_t minRuns,
            double seconds, std::vector<double> &rates,
            std::vector<double> &walls)
{
    const double t0 = nowSec();
    for (std::size_t i = 0; i < minRuns || nowSec() - t0 < seconds; ++i) {
        Trained t = trainFamily(ctx.family, s.data, ctx.opt.seed);
        ctx.report.ops(1, 0);
        rates.push_back(t.rowEpochs / t.trainSec);
        walls.push_back(t.trainSec);
        if (s.trained.model)
            ctx.report.check(sameFingerprint(t.fingerprint,
                                             s.trained.fingerprint),
                             "same-seed training reproduces its history");
        s.trained = std::move(t);
    }
}

/** Make sure a served model exists (after train-workload training). */
void
ensureCheckpointed(Context &ctx, SetupResult &s)
{
    if (ctx.opt.workload != Workload::Train)
        return;
    RoundTrip rt = roundTrip(ctx.family, *s.trained.model, s.data,
                             ctx.checkpointPath("train"), ctx.report);
    s.saveMs.push_back(rt.saveMs);
    s.loadMs.push_back(rt.loadMs);
    if (rt.model)
        s.trained.model = std::move(rt.model);
}

void
runEndToEnd(Context &ctx)
{
    const Options &opt = ctx.opt;
    Report &rep = ctx.report;
    const double seconds = opt.seconds;

    SetupResult s = setUp(ctx);
    rep.setMedian("setup_s", s.setupSec, "s");

    // Training.
    std::vector<double> rates = s.trainRates, walls;
    if (opt.workload == Workload::Train) {
        rates.clear();
        trainSeries(ctx, s, 2, seconds, rates, walls);
    }
    ensureCheckpointed(ctx, s);
    if (!s.trained.model) {
        rep.check(false, "a trained model exists");
        return;
    }
    const core::Surrogate &model = *s.trained.model;
    rep.setMedian("train_samples_per_s", rates, "1/s");

    // Search.
    SearchSeries series;
    const bool searchMeasured = opt.workload == Workload::Search ||
                                opt.workload == Workload::SearchVector;
    searchSeries(model, opt.seed, 3, searchMeasured ? seconds : 0.0,
                 series, rep);
    rep.setMedian("search_evals_per_s", series.evalsPerSec, "1/s");

    // Serving.
    if (!s.server)
        s.server = std::make_unique<LiveServer>(model);
    rep.check(s.server->ok(), "server starts");
    if (s.server->ok())
        rep.setMedian("serve_saturation_qps",
                      saturationSeries(model, *s.server, opt.seed, 2,
                                       opt.workload == Workload::Serve
                                           ? seconds
                                           : 0.0,
                                       rep),
                      "1/s");
}

/**
 * The traced run: set up untraced, time the workload's headline
 * operation untraced, then with tracing and metrics armed walk the
 * pipeline once (train, checkpoint, search, serve) and derive the
 * per-layer numbers from the spans and counters it leaves.
 */
void
runTraced(Context &ctx)
{
    const Options &opt = ctx.opt;
    Report &rep = ctx.report;
    SetupResult s = setUp(ctx);
    s.server.reset();

    // Untraced headline of the workload's own operation.
    std::vector<double> rates, walls;
    double untraced = 0.0;
    const double half = opt.seconds / 2;
    if (opt.workload == Workload::Train) {
        trainSeries(ctx, s, 1, half, rates, walls);
        untraced = median(walls);
    }
    ensureCheckpointed(ctx, s);
    if (!s.trained.model) {
        rep.check(false, "a trained model exists");
        return;
    }
    if (opt.workload == Workload::Search ||
        opt.workload == Workload::SearchVector) {
        SearchSeries series;
        searchSeries(*s.trained.model, opt.seed, 1, half, series, rep);
        untraced = median(series.wallSec);
    }
    if (opt.workload == Workload::Serve) {
        LiveServer server(*s.trained.model);
        rep.check(server.ok(), "server starts");
        untraced = 1.0 / saturationSeries(*s.trained.model, server,
                                          opt.seed, 1, 0.0, rep)[0];
    }

    // Before trace buffers take memory.
    rep.set("peak_rss_mb", peakRssMb(), "MB");

    // Traced pipeline.
    obs::setMetricsEnabled(true);
    obs::Registry::global().reset();
    obs::clearTrace();
    obs::setTracingEnabled(true);

    Trained t = trainFamily(ctx.family, s.data, opt.seed);
    rep.ops(1, 0);
    rep.check(sameFingerprint(t.fingerprint, s.trained.fingerprint),
              "same-seed training reproduces its history");
    RoundTrip rt = roundTrip(ctx.family, *t.model, s.data,
                             ctx.checkpointPath("traced"), rep);
    if (!rt.model)
        return;
    const core::Surrogate &model = *rt.model;
    const SearchRun run = searchOnce(model, searchSeed(opt.seed));
    rep.ops(1, 0);
    double serverCpuUs = 0.0;
    ServeOutcome o;
    {
        LiveServer server(model);
        rep.check(server.ok(), "server starts");
        o = serveProcedure(model, server, opt.seed, rep);
        server.stop();
        serverCpuUs = server.cpuUs();
    }
    obs::setTracingEnabled(false);

    double traced = 0.0;
    if (opt.workload == Workload::Train)
        traced = t.trainSec;
    else if (opt.workload == Workload::Serve)
        traced = 1.0 / o.saturationQps;
    else
        traced = run.wallSec;
    rep.set("trace.overhead_pct", 100.0 * (traced - untraced) / untraced,
            "%");
    rep.set("train_tau", heldOutTau(ctx.family, model, s.data), "tau");
    rep.set("search_hv", searchHv(run.result, ctx.oracle), "hv");
    rep.set("serve_p50_us.light", percentile(o.light.latencyUs, 50), "us");
    rep.set("serve_p99_us.light", percentile(o.light.latencyUs, 99), "us");
    rep.set("serve_p50_us.heavy", percentile(o.heavy.latencyUs, 50), "us");
    rep.set("serve_p99_us.heavy", percentile(o.heavy.latencyUs, 99), "us");
    rep.set("serve_max_qps", o.maxQps, "1/s");

    // Spans.
    const json::Value trace = json::parse(obs::traceJson());
    std::map<std::string, obsdiff::SpanStat> spans;
    for (const auto &st : obsdiff::aggregateTrace(trace))
        spans[st.name] = st;
    const auto self = [&](const char *n) {
        return spans.count(n) ? spans[n].selfUs : 0.0;
    };
    const auto total = [&](const char *n) {
        return spans.count(n) ? spans[n].totalUs : 0.0;
    };
    const auto count = [&](const char *n) {
        return spans.count(n) ? double(spans[n].count) : 0.0;
    };
    rep.set("trace.named_share", namedShare(trace, serverCpuUs), "ratio");
    rep.set("core.encode_self_us", self("surrogate.encode_batch"), "us");
    rep.set("core.fused_pass_self_us", self("predict.fused_pass"), "us");
    rep.set("nn.gemm_ab_self_us", self("gemm.ab"), "us");
    rep.set("nn.gemm_atb_self_us", self("gemm.atb"), "us");
    rep.set("nn.gemm_abt_self_us", self("gemm.abt"), "us");
    auto &reg = obs::Registry::global();
    // Flop counts come from the GEMM shapes, not from hardware counters.
    rep.set("nn.gemm_ab.gflop", double(reg.counterValue("gemm.ab.flops")) * 1e-9,
            "GFLOP");
    rep.set("nn.gemm_atb.gflop",
            double(reg.counterValue("gemm.atb.flops")) * 1e-9, "GFLOP");
    rep.set("nn.gemm_abt.gflop",
            double(reg.counterValue("gemm.abt.flops")) * 1e-9, "GFLOP");
    rep.set("core.fit_s", t.trainSec, "s");
    const char *epochSpan = ctx.family == Family::HwPrNas
                                ? "hwprnas.fit.epoch"
                                : "predictor.fit.epoch";
    rep.set("core.fit_epoch_ms",
            count(epochSpan) > 0 ? total(epochSpan) / count(epochSpan) / 1e3
                                 : 0.0,
            "ms");
    rep.set("core.fit_combiner_s", total("hwprnas.fit.combiner") * 1e-6, "s");
    rep.set("core.save_ms", median(s.saveMs), "ms");
    rep.set("core.load_ms", median(s.loadMs), "ms");
    rep.set("search.eval_s", run.evalSec, "s");
    rep.set("search.moea_self_s", run.wallSec - run.evalSec, "s");
    rep.set("search.eval_calls", double(run.calls), "count");
    rep.set("search.eval_rows", double(run.rows), "count");
    rep.set("search.repeat_ratio", run.repeatRatio, "ratio");
    const double hits = double(reg.counterValue("predict.rank_cache.hits"));
    const double misses =
        double(reg.counterValue("predict.rank_cache.misses"));
    rep.set("core.rank_cache.hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    rep.set("serve.server_mean_us", o.serverMeanUs, "us");
    rep.set("serve.batch_rows_mean", o.batchRowsMean, "rows");
    rep.set("serve.errors", o.errors, "count");
    rep.set("serve.gen_lag_p99_us", o.lagP99Us, "us");
    obs::setMetricsEnabled(false);

    // Untraced direct calls.
    std::vector<pareto::Point> merged;
    for (const auto &a : run.merged)
        merged.push_back(search::trueObjectives(ctx.oracle.record(a),
                                                kPlatform));
    const auto front =
        search::measureFront(run.result, ctx.oracle, kPlatform).front;
    const pareto::Point &ref = hvReference(ctx.oracle);
    rep.set("pareto.ranks_us.n200",
            medianUs([&] { (void)pareto::paretoRanks(merged); }), "us");
    rep.set("pareto.hv_ms",
            medianUs([&] { (void)pareto::hypervolume(front, ref); }) / 1e3,
            "ms");
    rep.set("serve.parse_us", parseUs(o.requests), "us");
    for (const std::size_t b : {1, 16, 100, 256})
        for (const std::size_t th : {1, 4})
            rep.set("core.predict_us.b" + std::to_string(b) + ".t" +
                        std::to_string(th),
                    predictUs(model, b, th, opt.seed + b), "us");

    // Pool hand-off costs: the timed phases run on a one-thread pool,
    // so take them from the same 4-thread calls, with metrics on.
    obs::Registry::global().reset();
    obs::setMetricsEnabled(true);
    for (const std::size_t b : {16, 100, 256})
        predictUs(model, b, 4, opt.seed + b);
    obs::setMetricsEnabled(false);
    const auto histMean = [&](const char *n) {
        const obs::Histogram *h = reg.findHistogram(n);
        return h ? h->mean() : 0.0;
    };
    rep.set("common.pool_wait_us", histMean("threadpool.task.wait_us"), "us");
    rep.set("common.pool_exec_us", histMean("threadpool.task.exec_us"), "us");
}

// ---------------------------------------------------------------------
// Command line, environment stamp, build guard
// ---------------------------------------------------------------------

bool
parseOptions(int argc, char **argv, Options &o)
{
    std::map<std::string, std::string> kv;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        if (k.rfind("--", 0) != 0)
            return false;
        kv[k.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0 || kv.size() != 5 || !kv.count("workload") ||
        !kv.count("seed") || !kv.count("seconds") || !kv.count("trace") ||
        !kv.count("workdir"))
        return false;
    const std::map<std::string, Workload> names = {
        {"train", Workload::Train},
        {"search", Workload::Search},
        {"search_vector", Workload::SearchVector},
        {"serve", Workload::Serve},
    };
    const auto it = names.find(kv["workload"]);
    if (it == names.end())
        return false;
    o.workload = it->second;
    o.workloadName = it->first;
    try {
        o.seed = std::stoull(kv["seed"]);
        o.seconds = std::stod(kv["seconds"]);
    } catch (const std::exception &) {
        return false;
    }
    if (kv["trace"] != "0" && kv["trace"] != "1")
        return false;
    o.trace = kv["trace"] == "1";
    o.workdir = kv["workdir"];
    return o.seconds > 0.0;
}

/** Numbers come only from optimized, unsanitized builds. */
bool
releaseBuild(std::string &why)
{
    const std::string flags = obs::buildFlags();
    if (flags.rfind("Release", 0) != 0) {
        why = "library build is '" + flags + "', not Release";
        return false;
    }
#if PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || !defined(__OPTIMIZE__)
    why = "sanitizer or unoptimized build";
    return false;
#else
    return true;
#endif
}

void
printEnvironment(const Options &o)
{
    std::cout << "perfbench env {\"workload\": \"" << o.workloadName
              << "\", \"seed\": " << o.seed << ", \"seconds\": "
              << o.seconds << ", \"trace\": " << (o.trace ? 1 : 0)
              << ", \"hardware_threads\": " << hardwareThreads()
              << ", \"pool_threads\": " << ExecContext::global().threads()
              << ", \"serve_pool_threads\": " << kPoolThreads
              << ", \"load_generator_threads\": 1"
              << ", \"connections\": " << kConnections
              << ", \"git_sha\": \"" << obs::gitSha()
              << "\", \"build\": \"" << obs::buildFlags()
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\"}" << std::endl;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::cerr << "usage: perfbench --workload "
                     "train|search|search_vector|serve --seed N "
                     "--seconds S --trace 0|1 --workdir DIR\n";
        return 2;
    }
    std::string why;
    if (!releaseBuild(why)) {
        std::cerr << "perfbench: refusing to measure: " << why << "\n";
        return 3;
    }
    std::filesystem::create_directories(opt.workdir);
    ExecContext::setGlobalThreads(kPoolThreads);
    printEnvironment(opt);

    Context ctx;
    ctx.opt = opt;
    ctx.family = opt.workload == Workload::SearchVector ? Family::BrpNas
                                                        : Family::HwPrNas;
    std::vector<std::string> failures;
    const std::size_t checks = selfTest(failures);
    ctx.report.ops(checks, failures.size());
    for (const auto &f : failures)
        std::cerr << "perfbench: " << f << "\n";

    if (opt.trace)
        runTraced(ctx);
    else
        runEndToEnd(ctx);

    const std::string line =
        ctx.report.resultLine(opt.trace ? kPerLayer : kEndToEnd);
    if (line.empty())
        return 1;
    std::cout << line << std::endl;
    return 0;
}
