/**
 * @file
 * hwpr-serve tests: frame codec, wire validation, end-to-end socket
 * round trips against a live server, graceful-drain semantics, and
 * the resumable job manager's bit-identical pause/resume contract.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>

#include "baselines/lut.h"
#include "common/json.h"
#include "common/obs.h"
#include "core/dominance.h"
#include "nasbench/dataset.h"
#include "nasbench/space.h"
#include "serve/jobs.h"
#include "serve/proto.h"
#include "serve/server.h"

using namespace hwpr;

namespace
{

/** Valid deterministic genome for @p space_id (gene = pos % options). */
nasbench::Architecture
sampleArch(nasbench::SpaceId space_id, int salt = 0)
{
    const auto &space = nasbench::spaceFor(space_id);
    nasbench::Architecture arch;
    arch.space = space_id;
    for (std::size_t pos = 0; pos < space.genomeLength(); ++pos)
        arch.genome.push_back(
            int((pos + std::size_t(salt)) % space.numOptions(pos)));
    return arch;
}

std::string
archJson(const nasbench::Architecture &arch)
{
    std::string out = "{\"space\": \"";
    out += serve::spaceName(arch.space);
    out += "\", \"genome\": [";
    for (std::size_t i = 0; i < arch.genome.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += std::to_string(arch.genome[i]);
    }
    out += "]}";
    return out;
}

/** Blocking test client speaking the length-prefixed protocol. */
class Client
{
  public:
    explicit Client(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(std::uint16_t(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        connected_ =
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0;
    }
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return connected_; }

    void
    send(const std::string &payload)
    {
        writeAll(serve::encodeFrame(payload));
    }

    /** Several frames in one write, so the server reads them in the
     *  same poll iteration (one flush window). */
    void
    sendTogether(const std::vector<std::string> &payloads)
    {
        std::string bytes;
        for (const std::string &payload : payloads)
            bytes += serve::encodeFrame(payload);
        writeAll(bytes);
    }

    std::string
    recv()
    {
        std::string header = readExact(4);
        if (header.size() != 4)
            return "";
        const auto *p =
            reinterpret_cast<const unsigned char *>(header.data());
        const std::size_t len = (std::size_t(p[0]) << 24) |
                                (std::size_t(p[1]) << 16) |
                                (std::size_t(p[2]) << 8) |
                                std::size_t(p[3]);
        return readExact(len);
    }

    json::Value
    roundTrip(const std::string &payload)
    {
        send(payload);
        return json::parse(recv());
    }

  private:
    void
    writeAll(const std::string &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::write(fd_, bytes.data() + off,
                                      bytes.size() - off);
            ASSERT_GT(n, 0);
            off += std::size_t(n);
        }
    }

    std::string
    readExact(std::size_t n)
    {
        std::string out;
        while (out.size() < n) {
            char buf[4096];
            const ssize_t got = ::read(
                fd_, buf, std::min(sizeof(buf), n - out.size()));
            if (got <= 0)
                return out;
            out.append(buf, std::size_t(got));
        }
        return out;
    }

    int fd_ = -1;
    bool connected_ = false;
};

/** Server on an ephemeral port with its run() loop on a thread. */
class LiveServer
{
  public:
    LiveServer(const core::Surrogate &model, serve::ServerConfig cfg)
        : server_(model, std::move(cfg))
    {
        std::string err;
        started_ = server_.start(err);
        EXPECT_TRUE(started_) << err;
        if (started_)
            thread_ = std::thread([this] { server_.run(); });
    }
    ~LiveServer() { stop(); }

    void
    stop()
    {
        if (thread_.joinable()) {
            server_.requestStop();
            thread_.join();
        }
    }

    int port() const { return server_.port(); }
    serve::Server &server() { return server_; }

  private:
    serve::Server server_;
    bool started_ = false;
    std::thread thread_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

template <typename Pred>
bool
waitFor(Pred pred, int timeout_ms = 30000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

} // namespace

// --------------------------------------------------------------------
// Frame codec

TEST(ServeProto, FrameRoundTripSurvivesBytewiseDelivery)
{
    const std::string a = "{\"op\": \"ping\"}";
    const std::string b = "{\"op\": \"stats\", \"id\": 7}";
    const std::string wire =
        serve::encodeFrame(a) + serve::encodeFrame(b);

    serve::FrameReader reader;
    std::vector<std::string> got;
    std::string payload;
    for (const char c : wire) { // worst-case fragmentation
        reader.feed(&c, 1);
        while (reader.next(payload))
            got.push_back(payload);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], a);
    EXPECT_EQ(got[1], b);
    EXPECT_FALSE(reader.poisoned());

    // Both frames in one feed() call.
    serve::FrameReader bulk;
    bulk.feed(wire.data(), wire.size());
    got.clear();
    while (bulk.next(payload))
        got.push_back(payload);
    EXPECT_EQ(got.size(), 2u);

    // Empty payload is a legal frame.
    serve::FrameReader empty;
    const std::string ef = serve::encodeFrame("");
    empty.feed(ef.data(), ef.size());
    ASSERT_TRUE(empty.next(payload));
    EXPECT_TRUE(payload.empty());
}

TEST(ServeProto, OversizeFramePoisonsTheStream)
{
    serve::FrameReader reader;
    const char huge[4] = {0x7f, 0x7f, 0x7f, 0x7f}; // ~2 GB declared
    reader.feed(huge, 4);
    std::string payload;
    EXPECT_FALSE(reader.next(payload));
    EXPECT_TRUE(reader.poisoned());
    // Poisoned readers stay poisoned even if more bytes arrive.
    const std::string ok = serve::encodeFrame("{}");
    reader.feed(ok.data(), ok.size());
    EXPECT_FALSE(reader.next(payload));
}

// --------------------------------------------------------------------
// Wire validation

TEST(ServeProto, ParseArchsRejectsEveryMalformation)
{
    std::vector<nasbench::Architecture> out;
    std::string err;
    const auto &nb = nasbench::nasBench201();

    const auto tryParse = [&](const std::string &body) {
        const json::Value req = json::parse(body);
        err.clear();
        return serve::parseArchs(req, out, err);
    };

    EXPECT_FALSE(tryParse("{\"op\": \"predict\"}"));
    EXPECT_NE(err.find("archs"), std::string::npos);

    EXPECT_FALSE(tryParse("{\"archs\": [42]}"));
    EXPECT_FALSE(tryParse(
        "{\"archs\": [{\"space\": \"resnet\", \"genome\": []}]}"));
    EXPECT_NE(err.find("unknown space"), std::string::npos);

    EXPECT_FALSE(tryParse(
        "{\"archs\": [{\"space\": \"nb201\", \"genome\": [0]}]}"));
    EXPECT_NE(err.find("length"), std::string::npos);

    // Right length, gene out of range / non-integer.
    std::string genome = "[99";
    for (std::size_t i = 1; i < nb.genomeLength(); ++i)
        genome += ", 0";
    genome += "]";
    EXPECT_FALSE(tryParse("{\"archs\": [{\"space\": \"nb201\", "
                          "\"genome\": " +
                          genome + "}]}"));
    EXPECT_NE(err.find("out of range"), std::string::npos);

    genome = "[0.5";
    for (std::size_t i = 1; i < nb.genomeLength(); ++i)
        genome += ", 0";
    genome += "]";
    EXPECT_FALSE(tryParse("{\"archs\": [{\"space\": \"nb201\", "
                          "\"genome\": " +
                          genome + "}]}"));

    // Overflowing numeric literals never reach parseArchs: the json
    // reader itself rejects them (strtod would saturate 1e400 to inf,
    // which would then masquerade as a gene value here).
    EXPECT_THROW(tryParse("{\"archs\": [{\"space\": \"nb201\", "
                          "\"genome\": [1e400]}]}"),
                 std::runtime_error);

    // And the happy path still parses.
    const auto arch = sampleArch(nasbench::SpaceId::NasBench201, 1);
    EXPECT_TRUE(tryParse("{\"archs\": [" + archJson(arch) + "]}"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].genome, arch.genome);
}

// --------------------------------------------------------------------
// End-to-end over a real socket

TEST(ServeServer, PredictAndRankMatchDirectBatchCalls)
{
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    std::vector<nasbench::Architecture> archs = {
        sampleArch(nasbench::SpaceId::NasBench201, 0),
        sampleArch(nasbench::SpaceId::NasBench201, 1),
        sampleArch(nasbench::SpaceId::FBNet, 2),
    };
    // Reference values computed before the server owns the model.
    core::BatchPlan plan;
    const Matrix &direct = model.predictBatch(archs, plan);
    std::vector<double> expect;
    for (std::size_t r = 0; r < archs.size(); ++r)
        expect.push_back(direct(r, 0));

    serve::ServerConfig cfg;
    cfg.batchDeadlineUs = 0; // flush every iteration: simple timing
    LiveServer live(model, cfg);
    Client client(live.port());
    ASSERT_TRUE(client.connected());

    std::string req =
        "{\"op\": \"predict\", \"id\": \"r1\", \"archs\": [";
    for (std::size_t i = 0; i < archs.size(); ++i)
        req += (i != 0 ? ", " : "") + archJson(archs[i]);
    req += "]}";
    const json::Value resp = client.roundTrip(req);
    ASSERT_TRUE(resp.find("ok") != nullptr);
    EXPECT_EQ(resp.stringOr("id", ""), "r1");
    const json::Value *preds = resp.find("predictions");
    ASSERT_NE(preds, nullptr);
    ASSERT_EQ(preds->asArray().size(), archs.size());
    for (std::size_t r = 0; r < archs.size(); ++r) {
        const auto &row = preds->asArray()[r].asArray();
        ASSERT_EQ(row.size(), 1u);
        // %.17g survives the double round trip bit-exactly.
        EXPECT_EQ(row[0].asNumber(), expect[r]);
    }

    // rank is an alias of predict: same values.
    const json::Value ranked = client.roundTrip(
        "{\"op\": \"rank\", \"id\": 2, \"archs\": [" +
        archJson(archs[0]) + "]}");
    EXPECT_EQ(ranked.stringOr("op", ""), "rank");
    const json::Value *rrows = ranked.find("predictions");
    ASSERT_NE(rrows, nullptr);
    EXPECT_EQ(rrows->asArray()[0].asArray()[0].asNumber(),
              expect[0]);

    // Both ops share one queue: a predict and a rank for the same
    // archs queued in one flush window cost exactly one fused batch,
    // come back in queue order with their own "op", and agree bit for
    // bit with the direct call.
    obs::Counter &batches =
        obs::Registry::global().counter("serve.batches");
    const std::uint64_t batches_before = batches.value();
    std::string archs_field = "\"archs\": [";
    for (std::size_t i = 0; i < archs.size(); ++i)
        archs_field += (i != 0 ? ", " : "") + archJson(archs[i]);
    archs_field += "]}";
    client.sendTogether(
        {"{\"op\": \"predict\", \"id\": \"p\", " + archs_field,
         "{\"op\": \"rank\", \"id\": \"k\", " + archs_field});
    const json::Value first = json::parse(client.recv());
    const json::Value second = json::parse(client.recv());
    EXPECT_EQ(batches.value() - batches_before, 1u);
    EXPECT_EQ(first.stringOr("op", ""), "predict");
    EXPECT_EQ(first.stringOr("id", ""), "p");
    EXPECT_EQ(second.stringOr("op", ""), "rank");
    EXPECT_EQ(second.stringOr("id", ""), "k");
    for (const json::Value *reply : {&first, &second}) {
        const json::Value *rows = reply->find("predictions");
        ASSERT_NE(rows, nullptr);
        ASSERT_EQ(rows->asArray().size(), archs.size());
        for (std::size_t r = 0; r < archs.size(); ++r)
            EXPECT_EQ(rows->asArray()[r].asArray()[0].asNumber(),
                      expect[r]);
    }

    // Empty batch: a well-defined no-op end to end (satellite 1).
    const json::Value none =
        client.roundTrip("{\"op\": \"predict\", \"archs\": []}");
    ASSERT_NE(none.find("predictions"), nullptr);
    EXPECT_TRUE(none.find("predictions")->asArray().empty());
}

TEST(ServeServer, MalformedRequestsGetErrorsNotDisconnects)
{
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    serve::ServerConfig cfg;
    cfg.batchDeadlineUs = 0;
    LiveServer live(model, cfg);
    Client client(live.port());
    ASSERT_TRUE(client.connected());

    json::Value resp = client.roundTrip("this is not json");
    EXPECT_NE(resp.find("error"), nullptr);

    resp = client.roundTrip("{\"op\": \"frobnicate\", \"id\": 9}");
    EXPECT_NE(resp.find("error"), nullptr);
    EXPECT_EQ(resp.numberOr("id", 0.0), 9.0);

    resp = client.roundTrip(
        "{\"op\": \"predict\", \"archs\": [{\"space\": \"bogus\", "
        "\"genome\": []}]}");
    EXPECT_NE(resp.find("error"), nullptr);

    // search without --jobs-dir is an error, not a crash.
    resp = client.roundTrip(
        "{\"op\": \"search\", \"job\": \"j1\"}");
    EXPECT_NE(resp.find("error"), nullptr);

    // A numeric literal that overflows double gets an error response
    // at parse time instead of silently becoming inf downstream.
    resp = client.roundTrip(
        "{\"op\": \"predict\", \"archs\": [{\"space\": \"nb201\", "
        "\"genome\": [1e400]}]}");
    EXPECT_NE(resp.find("error"), nullptr);

    // The connection survived all of it.
    resp = client.roundTrip("{\"op\": \"ping\"}");
    EXPECT_EQ(resp.stringOr("op", ""), "ping");

    // stats exposes the error counter we just incremented.
    resp = client.roundTrip("{\"op\": \"stats\"}");
    EXPECT_NE(resp.find("stats"), nullptr);
    EXPECT_NE(resp.find("jobs"), nullptr);
}

TEST(ServeServer, ShutdownDrainsQueuedRequestsBeforeExiting)
{
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    serve::ServerConfig cfg;
    // Deadline far in the future: only the drain can flush this.
    cfg.batchDeadlineUs = 60'000'000;
    cfg.batchMaxArchs = 1u << 20;
    LiveServer live(model, cfg);
    Client client(live.port());
    ASSERT_TRUE(client.connected());

    const auto arch = sampleArch(nasbench::SpaceId::NasBench201, 3);
    client.send("{\"op\": \"predict\", \"id\": \"queued\", "
                "\"archs\": [" +
                archJson(arch) + "]}");
    client.send("{\"op\": \"shutdown\"}");

    // Both must be answered before the loop exits: the shutdown ack
    // and the queued predict (flushed by quiet-poll batching or by
    // the drain on the way out, depending on frame arrival timing).
    bool sawShutdown = false, sawPredict = false;
    for (int i = 0; i < 2; ++i) {
        const json::Value resp = json::parse(client.recv());
        if (resp.stringOr("op", "") == "shutdown") {
            sawShutdown = true;
        } else {
            EXPECT_EQ(resp.stringOr("id", ""), "queued");
            ASSERT_NE(resp.find("predictions"), nullptr);
            EXPECT_EQ(resp.find("predictions")->asArray().size(),
                      1u);
            sawPredict = true;
        }
    }
    EXPECT_TRUE(sawShutdown);
    EXPECT_TRUE(sawPredict);
    live.stop();
}

TEST(ServeServer, SigtermMidRequestStillDrainsAndReturns)
{
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    serve::ServerConfig cfg;
    // Deadline far in the future: only quiet-poll batching or the
    // drain can flush the queued request.
    cfg.batchDeadlineUs = 60'000'000;
    cfg.batchMaxArchs = 1u << 20;

    serve::Server server(model, cfg);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    // The real handlers the daemon installs: sigaction without
    // SA_RESTART, pointing at requestStop().
    serve::installStopSignalHandlers(server);
    std::atomic<bool> done{false};
    std::thread loop([&] {
        server.run();
        done.store(true);
    });

    Client client(server.port());
    ASSERT_TRUE(client.connected());
    const auto arch = sampleArch(nasbench::SpaceId::NasBench201, 5);
    client.send("{\"op\": \"predict\", \"id\": \"inflight\", "
                "\"archs\": [" +
                archJson(arch) + "]}");
    // Let the loop read the frame, then deliver a real SIGTERM to the
    // process (regression for the std::signal wiring, whose
    // implementation-defined restart/one-shot semantics made the
    // drain unreliable).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);

    // The in-flight request is still answered on the way out...
    const std::string raw = client.recv();
    ASSERT_FALSE(raw.empty());
    const json::Value resp = json::parse(raw);
    EXPECT_EQ(resp.stringOr("id", ""), "inflight");
    ASSERT_NE(resp.find("predictions"), nullptr);
    EXPECT_EQ(resp.find("predictions")->asArray().size(), 1u);

    // ...and run() returns on its own, with no further nudging.
    EXPECT_TRUE(waitFor([&] { return done.load(); }));
    loop.join();
    serve::clearStopSignalHandlers();
}

TEST(ServeServer, DominanceCheckpointServedWithBitwiseParity)
{
    // Train a tiny dominance classifier, round-trip it through the
    // kind->loader registry, and serve the *loaded* model: the wire
    // responses must match a direct predictBatch call bit for bit
    // (%.17g survives the double round trip exactly).
    static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    Rng rng(91);
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle, 120,
        80, 20, rng);

    core::DominanceConfig dcfg;
    dcfg.encoder.gcnHidden = 16; // multiples of 4: lane-phase safe
    dcfg.encoder.lstmHidden = 16;
    dcfg.encoder.embedDim = 8;
    dcfg.headHidden = {16, 8};
    dcfg.referenceSize = 16;
    dcfg.maxPairsPerEpoch = 1500;
    dcfg.maxValPairs = 300;
    core::DominanceSurrogate trainer(
        dcfg, nasbench::DatasetId::Cifar10, 7);
    core::TrainConfig tc;
    tc.epochs = 2;
    tc.patience = 2;
    tc.batchSize = 64;
    trainer.train(data.select(data.trainIdx),
                  data.select(data.valIdx), hw::PlatformId::EdgeGpu,
                  tc);

    const std::string ckpt =
        ::testing::TempDir() + "serve_dominance.ckpt";
    ASSERT_TRUE(trainer.save(ckpt));
    const auto model = core::loadSurrogate(ckpt);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), "Dominance Classifier");

    std::vector<nasbench::Architecture> archs = {
        sampleArch(nasbench::SpaceId::NasBench201, 0),
        sampleArch(nasbench::SpaceId::NasBench201, 4),
        sampleArch(nasbench::SpaceId::FBNet, 2),
    };
    core::BatchPlan plan;
    const Matrix &direct = model->predictBatch(archs, plan);
    std::vector<double> expect;
    for (std::size_t r = 0; r < archs.size(); ++r)
        expect.push_back(direct(r, 0));

    serve::ServerConfig cfg;
    cfg.batchDeadlineUs = 0;
    LiveServer live(*model, cfg);
    Client client(live.port());
    ASSERT_TRUE(client.connected());

    std::string req = "{\"op\": \"predict\", \"archs\": [";
    for (std::size_t i = 0; i < archs.size(); ++i)
        req += (i != 0 ? ", " : "") + archJson(archs[i]);
    req += "]}";
    const json::Value resp = client.roundTrip(req);
    const json::Value *preds = resp.find("predictions");
    ASSERT_NE(preds, nullptr);
    ASSERT_EQ(preds->asArray().size(), archs.size());
    for (std::size_t r = 0; r < archs.size(); ++r) {
        const auto &row = preds->asArray()[r].asArray();
        ASSERT_EQ(row.size(), 1u);
        EXPECT_EQ(row[0].asNumber(), expect[r]);
        // Scores are mean dominance probabilities: in (0, 1).
        EXPECT_GT(row[0].asNumber(), 0.0);
        EXPECT_LT(row[0].asNumber(), 1.0);
    }

    // rank is an alias of predict: bit-identical answers.
    const json::Value ranked = client.roundTrip(
        "{\"op\": \"rank\", \"archs\": [" + archJson(archs[0]) +
        ", " + archJson(archs[2]) + "]}");
    const json::Value *rrows = ranked.find("predictions");
    ASSERT_NE(rrows, nullptr);
    EXPECT_EQ(rrows->asArray()[0].asArray()[0].asNumber(), expect[0]);
    EXPECT_EQ(rrows->asArray()[1].asArray()[0].asNumber(), expect[2]);
}

TEST(ServeServer, MicroBatchCoalescingPreservesPerRequestAnswers)
{
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    std::vector<nasbench::Architecture> archs;
    for (int i = 0; i < 6; ++i)
        archs.push_back(
            sampleArch(nasbench::SpaceId::NasBench201, i));
    core::BatchPlan plan;
    const Matrix &direct = model.predictBatch(archs, plan);
    std::vector<double> expect;
    for (std::size_t r = 0; r < archs.size(); ++r)
        expect.push_back(direct(r, 0));

    serve::ServerConfig cfg; // default 1ms deadline: coalesce
    LiveServer live(model, cfg);
    Client client(live.port());
    ASSERT_TRUE(client.connected());

    // Six single-arch requests back to back land in one (or a few)
    // fused batches; each response must still carry its own row.
    for (std::size_t i = 0; i < archs.size(); ++i)
        client.send("{\"op\": \"predict\", \"id\": " +
                    std::to_string(i) + ", \"archs\": [" +
                    archJson(archs[i]) + "]}");
    std::vector<bool> seen(archs.size(), false);
    for (std::size_t i = 0; i < archs.size(); ++i) {
        const json::Value resp = json::parse(client.recv());
        const auto idx = std::size_t(resp.numberOr("id", -1.0));
        ASSERT_LT(idx, archs.size());
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
        const json::Value *preds = resp.find("predictions");
        ASSERT_NE(preds, nullptr);
        EXPECT_EQ(preds->asArray()[0].asArray()[0].asNumber(),
                  expect[idx]);
    }
}

// --------------------------------------------------------------------
// Resumable jobs

TEST(ServeJobs, SpecValidationRejectsBadInput)
{
    serve::JobSpec spec;
    std::string err;
    EXPECT_FALSE(serve::validateJobSpec(spec, err)); // empty id
    spec.id = "job-1";
    EXPECT_TRUE(serve::validateJobSpec(spec, err));
    spec.id = "../escape";
    EXPECT_FALSE(serve::validateJobSpec(spec, err));
    spec.id = "ok_id";
    spec.population = 1;
    EXPECT_FALSE(serve::validateJobSpec(spec, err));
    spec.population = 8;
    spec.space = "imagenet";
    EXPECT_FALSE(serve::validateJobSpec(spec, err));
}

TEST(ServeJobs, JobRunsToCompletionAndPersistsAResult)
{
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    const std::string dir = freshDir("hwpr_serve_jobs_basic");
    serve::JobManager jm(model, dir);
    jm.recover();
    jm.start();

    serve::JobSpec spec;
    spec.id = "basic";
    spec.population = 8;
    spec.generations = 3;
    spec.seed = 11;
    spec.space = "nb201";
    std::string err;
    ASSERT_TRUE(jm.submit(spec, err)) << err;
    // Duplicate ids are rejected while the first is still live.
    EXPECT_FALSE(jm.submit(spec, err));

    serve::JobStatus st;
    ASSERT_TRUE(waitFor([&] {
        return jm.status("basic", st) && st.state == "done";
    })) << "state=" << st.state << " err=" << st.error;
    EXPECT_EQ(st.generationsDone, spec.generations);
    jm.stop();

    const std::string body = readFile(jm.resultPath("basic"));
    ASSERT_FALSE(body.empty());
    const json::Value v = json::parse(body);
    EXPECT_EQ(v.stringOr("id", ""), "basic");
    EXPECT_EQ(v.numberOr("generations", 0.0), 3.0);
    ASSERT_NE(v.find("archs"), nullptr);
    EXPECT_EQ(v.find("archs")->asArray().size(), spec.population);
}

TEST(ServeJobs, PausedJobResumesToABitIdenticalResult)
{
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    serve::JobSpec spec;
    spec.id = "resume";
    spec.population = 8;
    spec.generations = 5;
    spec.seed = 23;
    spec.space = "nb201";
    std::string err;

    // Reference: uninterrupted run.
    const std::string dirA = freshDir("hwpr_serve_jobs_ref");
    std::string refBody;
    {
        serve::JobManager jm(model, dirA);
        jm.recover();
        jm.start();
        ASSERT_TRUE(jm.submit(spec, err)) << err;
        serve::JobStatus st;
        ASSERT_TRUE(waitFor([&] {
            return jm.status("resume", st) && st.state == "done";
        }));
        jm.stop();
        refBody = readFile(jm.resultPath("resume"));
        ASSERT_FALSE(refBody.empty());
    }

    // Interrupted run: stop mid-job (graceful pause at a slice
    // boundary), then a fresh manager recovers and finishes it.
    const std::string dirB = freshDir("hwpr_serve_jobs_resume");
    {
        serve::JobManager jm(model, dirB);
        jm.recover();
        jm.start();
        ASSERT_TRUE(jm.submit(spec, err)) << err;
        serve::JobStatus st;
        ASSERT_TRUE(waitFor([&] {
            return jm.status("resume", st) &&
                   (st.generationsDone >= 1 || st.state == "done");
        }));
        jm.stop(); // pauses unless it already finished
        ASSERT_TRUE(jm.status("resume", st));
        EXPECT_TRUE(st.state == "paused" || st.state == "done")
            << st.state;
    }
    {
        serve::JobManager jm(model, dirB);
        const std::size_t queued = jm.recover();
        // Either it paused (queued again) or finished before stop().
        EXPECT_LE(queued, 1u);
        jm.start();
        serve::JobStatus st;
        ASSERT_TRUE(waitFor([&] {
            return jm.status("resume", st) && st.state == "done";
        }));
        jm.stop();
        const std::string resumedBody =
            readFile(jm.resultPath("resume"));
        EXPECT_EQ(resumedBody, refBody)
            << "resumed result.json differs from uninterrupted run";
    }
}

TEST(ServeServer, SearchOverTheWireReachesDone)
{
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    serve::ServerConfig cfg;
    cfg.batchDeadlineUs = 0;
    cfg.jobsDir = freshDir("hwpr_serve_wire_jobs");
    LiveServer live(model, cfg);
    Client client(live.port());
    ASSERT_TRUE(client.connected());

    json::Value resp = client.roundTrip(
        "{\"op\": \"search\", \"job\": \"wire\", \"population\": 8, "
        "\"generations\": 2, \"seed\": 3, \"space\": \"nb201\"}");
    ASSERT_EQ(resp.find("error"), nullptr)
        << resp.stringOr("error", "");
    EXPECT_EQ(resp.stringOr("job", ""), "wire");

    ASSERT_TRUE(waitFor([&] {
        const json::Value st =
            client.roundTrip("{\"op\": \"job\", \"job\": \"wire\"}");
        const json::Value *status = st.find("status");
        return status != nullptr &&
               status->stringOr("state", "") == "done";
    }));
    const json::Value done =
        client.roundTrip("{\"op\": \"job\", \"job\": \"wire\"}");
    ASSERT_NE(done.find("result"), nullptr);
    EXPECT_EQ(done.find("result")->stringOr("id", ""), "wire");

    // jobs listing shows it too.
    const json::Value listing =
        client.roundTrip("{\"op\": \"jobs\"}");
    ASSERT_NE(listing.find("jobs"), nullptr);
    EXPECT_EQ(listing.find("jobs")->asArray().size(), 1u);
}
