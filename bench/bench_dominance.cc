/**
 * @file
 * Dominance-guided vs rank-guided search: hypervolume-vs-budget
 * comparison of the dominance-classifier surrogate (classification-
 * wise environmental selection, MoeaConfig::dominanceSelection)
 * against HW-PR-NAS (elitist top-k by predicted Pareto score) on the
 * NAS-Bench-201 + FBNet union space across all seven platforms.
 *
 * Both methods share, per (platform, seed): the same sampled training
 * set, the same search domain, the same generation-budget grid and
 * the same per-platform hypervolume reference point (nadir of a large
 * random cloud). Fronts are measured on the oracle — reported
 * hypervolume never comes from surrogate outputs (see DESIGN.md
 * "Dominance surrogate").
 *
 * Results are written as JSON (default BENCH_dominance.json) so the
 * comparison is tracked across PRs. With --gate the process fails if
 * the dominance-guided mean hypervolume at the final budget drops
 * below 99% of the HW-PR-NAS mean — the CI regression gate.
 *
 * Flags:
 *   --json=FILE   output path (default BENCH_dominance.json)
 *   --quick       tiny configuration for CI smoke runs
 *   --gate        exit 1 when the dominance family regresses
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/obs.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "nasbench/dataset.h"
#include "pareto/pareto.h"
#include "search/moea.h"
#include "search/report.h"

using namespace hwpr;

namespace
{

/** Sizing knobs for one benchmark run. */
struct BenchConfig
{
    std::size_t total = 320;
    std::size_t trainCount = 220;
    std::size_t valCount = 60;
    std::size_t epochs = 8;
    std::size_t populationSize = 24;
    std::vector<std::size_t> budgets = {5, 10, 20}; ///< generations
    std::size_t referenceCloud = 2000;
    std::size_t seeds = 5;

    static BenchConfig
    quick()
    {
        BenchConfig cfg;
        cfg.total = 160;
        cfg.trainCount = 100;
        cfg.valCount = 30;
        cfg.epochs = 4;
        cfg.populationSize = 16;
        cfg.budgets = {2, 4, 8};
        cfg.referenceCloud = 800;
        cfg.seeds = 2;
        return cfg;
    }
};

/** One (platform, seed, budget, method) measurement. */
struct CaseResult
{
    std::string platform;
    std::size_t seed = 0;
    std::size_t generations = 0;
    std::size_t evaluations = 0;
    std::string method;
    double hypervolume = 0.0;
};

int
run(const std::string &json_path, bool quick, bool gate)
{
    const BenchConfig cfg =
        quick ? BenchConfig::quick() : BenchConfig();
    obs::setMetricsEnabled(true);

    core::EncoderConfig enc = core::EncoderConfig::fast();
    enc.gcnHidden = 16; // multiples of 4: lane-phase safe
    enc.lstmHidden = 16;
    enc.embedDim = 8;

    core::TrainConfig hwpr_train;
    hwpr_train.epochs = cfg.epochs;
    hwpr_train.patience = cfg.epochs;
    hwpr_train.learningRate = 1e-3;
    hwpr_train.combinerEpochs = 2;

    core::TrainConfig dom_train = hwpr_train;
    dom_train.batchSize = 64;

    nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    const auto domain = search::SearchDomain::unionBenchmarks();

    std::vector<CaseResult> cases;
    // Final-budget hypervolumes per method, pooled over platforms and
    // seeds — the gate compares these means.
    std::map<std::string, std::vector<double>> finals;

    for (hw::PlatformId platform : hw::allPlatforms()) {
        const std::string pf_name = hw::platformName(platform);
        std::cout << "--- platform " << pf_name << " ---" << std::endl;

        // Shared per-platform hypervolume reference: nadir of a large
        // random cloud measured on the oracle.
        std::vector<pareto::Point> cloud;
        {
            Rng rng(424200);
            for (std::size_t i = 0; i < cfg.referenceCloud; ++i)
                cloud.push_back(search::trueObjectives(
                    oracle.record(domain.sample(rng)), platform));
        }
        const pareto::Point ref = pareto::nadirReference(cloud, 0.05);

        for (std::size_t seed = 0; seed < cfg.seeds; ++seed) {
            Rng rng(seed * 7919 + 31);
            const auto data = nasbench::SampledDataset::sample(
                {&nasbench::nasBench201(), &nasbench::fbnet()},
                oracle, cfg.total, cfg.trainCount, cfg.valCount, rng);
            const auto train = data.select(data.trainIdx);
            const auto val = data.select(data.valIdx);

            core::HwPrNasConfig hc;
            hc.encoder = enc;
            core::HwPrNas hwpr(hc, nasbench::DatasetId::Cifar10,
                               seed ^ 0x11ull);
            hwpr.train(train, val, platform, hwpr_train);

            core::DominanceConfig dc;
            dc.encoder = enc;
            dc.headHidden = {32, 16};
            dc.referenceSize = 32;
            core::DominanceSurrogate dom(
                dc, nasbench::DatasetId::Cifar10, seed ^ 0x44ull);
            dom.train(train, val, platform, dom_train);

            core::SurrogateEvaluator hwpr_eval(hwpr);
            core::SurrogateEvaluator dom_eval(dom);
            const std::vector<std::pair<std::string,
                                        search::Evaluator *>>
                methods = {{"hwprnas", &hwpr_eval},
                           {"dominance", &dom_eval}};

            for (const std::size_t gens : cfg.budgets) {
                for (const auto &[name, eval] : methods) {
                    search::MoeaConfig mc;
                    mc.populationSize = cfg.populationSize;
                    mc.maxGenerations = gens;
                    mc.simulatedBudgetSeconds = 0.0;
                    // The tentpole variant: environmental selection
                    // by predicted dominance count. A no-op for
                    // evaluators without a pairwise head, so setting
                    // it only flips behavior for "dominance".
                    mc.dominanceSelection = name == "dominance";
                    // Same engine seed per (seed, budget) pair: both
                    // methods search from the same initial population
                    // and mutation stream.
                    Rng srng(9000 + seed * 100 + gens);
                    const auto result = search::Moea(mc).run(
                        domain, *eval, srng);
                    const auto front = search::measureFront(
                        result, oracle, platform);
                    const double hv =
                        pareto::hypervolume(front.front, ref);

                    CaseResult c;
                    c.platform = pf_name;
                    c.seed = seed;
                    c.generations = gens;
                    c.evaluations = result.stats.evaluations;
                    c.method = name;
                    c.hypervolume = hv;
                    cases.push_back(c);
                    if (gens == cfg.budgets.back())
                        finals[name].push_back(hv);
                    std::cout << "  seed " << seed << " gens " << gens
                              << " " << name << ": hv "
                              << AsciiTable::num(hv, 3) << std::endl;
                }
            }
        }
    }

    const double hwpr_mean = mean(finals["hwprnas"]);
    const double dom_mean = mean(finals["dominance"]);
    const bool gate_ok = dom_mean >= hwpr_mean * 0.99;
    std::cout << "final-budget mean hypervolume: hwprnas "
              << AsciiTable::num(hwpr_mean, 4) << " +-"
              << AsciiTable::num(stdError(finals["hwprnas"]), 4)
              << ", dominance " << AsciiTable::num(dom_mean, 4)
              << " +-"
              << AsciiTable::num(stdError(finals["dominance"]), 4)
              << " -> gate " << (gate_ok ? "OK" : "FAIL")
              << " (threshold 0.99x)" << std::endl;

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n  \"bench\": \"bench_dominance\",\n"
        << "  \"note\": \"hypervolume vs generation budget: "
           "dominance-guided MOEA (classification-wise selection) vs "
           "rank-guided HW-PR-NAS on NB201+FBNet, all platforms; "
           "fronts measured on the oracle\",\n"
        << "  \"meta\": " << obs::runMetaJson("  ") << ",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"seeds\": " << cfg.seeds << ",\n"
        << "  \"population\": " << cfg.populationSize << ",\n"
        << "  \"budgets\": [";
    for (std::size_t i = 0; i < cfg.budgets.size(); ++i)
        out << (i ? ", " : "") << cfg.budgets[i];
    out << "],\n  \"cases\": [";
    bool first = true;
    for (const auto &c : cases) {
        out << (first ? "" : ",") << "\n    {\"platform\": \""
            << c.platform << "\", \"seed\": " << c.seed
            << ", \"generations\": " << c.generations
            << ", \"evaluations\": " << c.evaluations
            << ", \"method\": \"" << c.method
            << "\", \"hypervolume\": " << c.hypervolume << "}";
        first = false;
    }
    out << "\n  ],\n"
        << "  \"final_budget_mean\": {\"hwprnas\": " << hwpr_mean
        << ", \"dominance\": " << dom_mean << "},\n"
        << "  \"gate\": {\"threshold\": 0.99, \"ok\": "
        << (gate_ok ? "true" : "false") << "},\n"
        << "  \"metrics\": "
        << obs::Registry::global().snapshotJson("  ") << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
    return gate && !gate_ok ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_dominance.json";
    bool quick = false;
    bool gate = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(arg.find('=') + 1);
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--gate") {
            gate = true;
        } else {
            std::cerr << "usage: bench_dominance [--json=FILE]"
                      << " [--quick] [--gate]\n";
            return 1;
        }
    }
    return run(json_path, quick, gate);
}
