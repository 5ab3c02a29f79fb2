// Workload "service": textual question -> billed answer through the
// resident service. Closed loop: kClients tenants, each with one session
// in flight, against kHandlers handler threads. A session submits the
// question to the `estimate` workload (parse, compile, quote), then to the
// `plan` workload (compile, execute, bill) and waits for the answer.
//
// The timed operation is a round of four sessions, one question of each
// kind, in shuffled order. No record of real observatory traffic exists
// to weight the kinds by, so the mix is an assumption: every kind equally
// often. Questions take the parameters of examples/question_frontdoor
// (three countries, top-sites 25, budget-usd 40) and the question
// defaults otherwise; the seed picks the countries and, for exposure
// questions, one of four fixed corridors. Kinds differ in cost by more
// than an order of magnitude, so a round, not a session, is the unit whose
// time is comparable across rounds and seeds.
// Corridor routing states are derived once before timing (a resident
// service answers exposure questions from its warm oracle cache; the cold
// derive is what the catalog and continental workloads time).

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "harness.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "persist/record.hpp"
#include "phys/cable.hpp"
#include "plan/planner.hpp"
#include "plan/textio.hpp"
#include "service/ledger.hpp"
#include "service/service.hpp"
#include "topo/generator.hpp"

namespace perfbench {
namespace {

using namespace aio;

constexpr std::size_t kClients = 2;
constexpr std::size_t kHandlers = 2;
constexpr std::size_t kCountriesPerQuestion = 3;

/// The kinds of one round (shuffled per round).
const std::vector<plan::QuestionKind> kKindPattern = {
    plan::QuestionKind::DetourRate,
    plan::QuestionKind::ContentLocality,
    plan::QuestionKind::IxpCoverage,
    plan::QuestionKind::OutageExposure,
};

/// Corridors of the exposure questions. Every run asks about the same
/// four (the seed picks one per question), so the rounds' exposure cost
/// does not depend on which corridors a seed happens to draw.
const std::vector<std::vector<std::string>> kCorridors = {
    {"WACS", "SAT-3"},
    {"MainOne", "ACE"},
    {"SEACOM", "EASSy"},
    {"EIG", "AAE-1"},
};

struct World {
    std::shared_ptr<const service::ServiceSnapshot> snapshot;
    std::unique_ptr<persist::MemorySink> ledger;
    std::unique_ptr<service::ObservatoryService> service;
};

World buildWorld(const obs::Clock& clock, obs::MetricsRegistry* metrics) {
    World world;
    topo::Topology topology =
        topo::TopologyGenerator{topo::GeneratorConfig::defaults()}.generate();
    service::SnapshotConfig config;
    config.metrics = metrics;
    world.snapshot = service::ServiceSnapshot::build(
                         std::move(topology),
                         phys::CableRegistry::africanDefaults(),
                         dns::DnsConfig::defaults(),
                         content::ContentConfig::defaults(), config)
                         .valueOrRaise();
    world.ledger = std::make_unique<persist::MemorySink>();
    world.service = std::make_unique<service::ObservatoryService>(
        world.snapshot, service::ServiceConfig{}, &clock, metrics,
        world.ledger.get());
    for (std::size_t c = 0; c < kClients; ++c) {
        service::TenantQuota quota;
        quota.tenant = "tenant-" + std::to_string(c);
        quota.budgetUsd = 1e12;
        world.service->registerTenant(quota);
    }
    world.service->start(kHandlers);
    return world;
}

std::string questionText(plan::QuestionKind kind, const std::string& name,
                         const std::vector<std::string>& countries,
                         const std::vector<std::string>& corridor) {
    std::string text = "question " + name + "\nkind " +
                       std::string{plan::questionKindName(kind)} + "\n";
    if (kind == plan::QuestionKind::OutageExposure) {
        for (const auto& c : corridor) text += "cable " + c + "\n";
    } else {
        for (const auto& c : countries) text += "country " + c + "\n";
    }
    if (kind == plan::QuestionKind::ContentLocality) {
        text += "top-sites 25\n";
    }
    return text + "budget-usd 40\nend\n";
}

/// One tenant's seeded question stream.
class QuestionStream {
public:
    QuestionStream(std::uint64_t seed, std::vector<std::string> countries)
        : rng_(seed), countries_(std::move(countries)) {}

    std::pair<plan::QuestionKind, std::string> next() {
        if (slot_ % kKindPattern.size() == 0) {
            pattern_ = kKindPattern;
            std::shuffle(pattern_.begin(), pattern_.end(), rng_);
        }
        const plan::QuestionKind kind = pattern_[slot_ % pattern_.size()];
        std::vector<std::string> pool = countries_;
        std::shuffle(pool.begin(), pool.end(), rng_);
        pool.resize(kCountriesPerQuestion);
        const auto& corridor = kCorridors[rng_() % kCorridors.size()];
        const std::string name = "q" + std::to_string(slot_++);
        return {kind, questionText(kind, name, pool, corridor)};
    }

private:
    std::mt19937_64 rng_;
    std::vector<std::string> countries_;
    std::vector<plan::QuestionKind> pattern_;
    std::size_t slot_ = 0;
};

/// Everything one client thread observed.
struct ClientLog {
    std::vector<double> roundMs, estimateMs, planMs, submitUs;
    /// Billing facts of every request this client submitted (one tenant
    /// per client): megabytes the registry resolves, dollars the responses
    /// say were charged, and responses served off another epoch's routes.
    double expectedMb = 0.0;
    double chargedUsd = 0.0;
    std::uint64_t charges = 0;
    std::uint64_t tornReads = 0;
    /// First session of each kind: question text and the service's answer,
    /// re-derived directly through the planner after the run.
    std::vector<std::pair<std::string, plan::CampaignAnswer>> samples;
    std::vector<plan::QuestionKind> sampledKinds;
    std::uint64_t rounds = 0;
    std::uint64_t failedRounds = 0;
    std::vector<std::string> problems;
};

service::ServiceResponse roundTrip(service::ObservatoryService& svc,
                                   service::ServiceRequest request,
                                   const route::RouteMatrixDigest& digest,
                                   ClientLog& log) {
    const auto start = Clock::now();
    auto future = svc.submit(request);
    log.submitUs.push_back(secondsSince(start) * 1e6);
    service::ServiceResponse response = future.get();
    log.expectedMb += svc.workloads().resolveCostMb(request);
    log.chargedUsd += response.chargedUsd;
    ++log.charges;
    log.tornReads += response.digest == digest ? 0 : 1;
    return response;
}

/// One session: quote, then execute. False when either step failed or the
/// executed cost left the quoted band.
bool runSession(service::ObservatoryService& svc, const obs::Clock& clock,
                const route::RouteMatrixDigest& digest,
                const std::string& tenant, QuestionStream& stream,
                ClientLog& log) {
    const auto [kind, text] = stream.next();
    service::ServiceRequest ask;
    ask.tenant = tenant;
    ask.workload = "estimate";
    ask.questionText = text;

    const auto start = Clock::now();
    const service::ServiceResponse quote = roundTrip(svc, ask, digest, log);
    const auto quoted = Clock::now();
    service::ServiceRequest run = ask;
    run.workload = "plan";
    run.deadlineNanos = clock.nowNanos() + 120'000'000'000ULL;
    const service::ServiceResponse answer = roundTrip(svc, run, digest, log);
    const auto done = Clock::now();

    const bool ok = quote.status == service::ResponseStatus::Ok &&
                    answer.status == service::ResponseStatus::Ok &&
                    quote.plan.has_value() && answer.report.has_value() &&
                    answer.report->withinBound;
    if (!ok) {
        log.problems.push_back("session failed: " + quote.error +
                               answer.error);
        return false;
    }
    log.estimateMs.push_back(
        std::chrono::duration<double, std::milli>(quoted - start).count());
    log.planMs.push_back(
        std::chrono::duration<double, std::milli>(done - quoted).count());
    if (std::find(log.sampledKinds.begin(), log.sampledKinds.end(), kind) ==
        log.sampledKinds.end()) {
        log.sampledKinds.push_back(kind);
        log.samples.emplace_back(text, answer.report->answer);
    }
    return true;
}

/// Closed loop of rounds until `until`; a round is one pass over the kind
/// pattern, so every round asks the same mix.
void runClient(service::ObservatoryService& svc, const obs::Clock& clock,
               const route::RouteMatrixDigest& digest,
               const std::string& tenant, QuestionStream stream,
               Clock::time_point until, ClientLog& log) {
    while (Clock::now() < until) {
        const auto start = Clock::now();
        bool ok = true;
        for (std::size_t i = 0; i < kKindPattern.size(); ++i) {
            ok = runSession(svc, clock, digest, tenant, stream, log) && ok;
        }
        ++log.rounds;
        if (!ok) {
            ++log.failedRounds;
            continue;
        }
        log.roundMs.push_back(secondsSince(start) * 1e3);
    }
}

} // namespace

Report runService(const Options& options) {
    Report report;
    const obs::SteadyClock clock;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    if (options.trace) {
        metrics = std::make_unique<obs::MetricsRegistry>();
    }

    World world;
    const double setupSeconds = fastestSetupSeconds([&] {
        world = World{};
        world = buildWorld(clock, metrics.get());
    });
    service::ObservatoryService& svc = *world.service;
    const topo::Topology& topology = world.snapshot->topology();

    // Questions are scoped to countries that have networks in the world.
    std::vector<std::string> countries;
    for (const net::Country* country : net::CountryTable::world().african()) {
        if (!topology.asesInCountry(country->iso2).empty()) {
            countries.emplace_back(country->iso2);
        }
    }

    // Warm the snapshot's oracle cache with every corridor. The warm-up is
    // billed like any request, so the billing checks below include it.
    std::vector<ClientLog> logs(kClients + 1);
    for (const auto& corridor : kCorridors) {
        service::ServiceRequest warm;
        warm.tenant = "tenant-0";
        warm.workload = "plan";
        warm.questionText = questionText(plan::QuestionKind::OutageExposure,
                                         "warm", {}, corridor);
        warm.deadlineNanos = clock.nowNanos() + 120'000'000'000ULL;
        const auto response = roundTrip(svc, warm, world.snapshot->digest(),
                                        logs[kClients]);
        report.require(response.status == service::ResponseStatus::Ok,
                       "warm-up request failed: " + response.error);
    }
    logs[kClients].submitUs.clear();

    const auto hits0 = counterValue(metrics.get(), "cache.oracle.hits");
    const auto misses0 = counterValue(metrics.get(), "cache.oracle.misses");
    const auto handler0 = histogramTotals(metrics.get(),
                                          "service.request_seconds");

    const auto start = Clock::now();
    const auto until =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds));
    {
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.emplace_back(
                runClient, std::ref(svc), std::cref(clock),
                std::cref(world.snapshot->digest()),
                "tenant-" + std::to_string(c),
                QuestionStream{mixSeed(options.seed, 100 + c), countries},
                until, std::ref(logs[c]));
        }
        for (std::thread& client : clients) {
            client.join();
        }
    }
    svc.stop();

    ClientLog all;
    for (ClientLog& log : logs) {
        all.roundMs.insert(all.roundMs.end(), log.roundMs.begin(),
                           log.roundMs.end());
        all.estimateMs.insert(all.estimateMs.end(), log.estimateMs.begin(),
                              log.estimateMs.end());
        all.planMs.insert(all.planMs.end(), log.planMs.begin(),
                          log.planMs.end());
        all.submitUs.insert(all.submitUs.end(), log.submitUs.begin(),
                            log.submitUs.end());
        all.rounds += log.rounds;
        all.failedRounds += log.failedRounds;
        for (const std::string& problem : log.problems) {
            report.problems.push_back(problem);
        }
    }
    report.attempted = all.rounds;
    report.failed = all.failedRounds;

    report.metrics["latency_p10_ms"] = percentile(all.roundMs, 10);
    report.metrics["peak_rss_mb"] = peakRssMb();
    report.metrics["setup_s"] = setupSeconds;

    if (metrics) {
        const double handlerMs =
            histogramTotals(metrics.get(), "service.request_seconds")
                .meanSince(handler0, 1e3);
        const double roundTripMs =
            (mean(all.estimateMs) + mean(all.planMs)) / 2.0;
        const auto hits = counterValue(metrics.get(), "cache.oracle.hits") - hits0;
        const auto misses =
            counterValue(metrics.get(), "cache.oracle.misses") - misses0;
        report.metrics["admission_us"] = median(all.submitUs);
        report.metrics["estimate_ms"] = median(all.estimateMs);
        report.metrics["plan_ms"] = median(all.planMs);
        report.metrics["handler_ms"] = handlerMs;
        report.metrics["queue_wait_ms"] = std::max(
            0.0, roundTripMs - handlerMs - mean(all.submitUs) * 1e-3);
        report.metrics["oracle_cache_hit_rate"] =
            hits + misses == 0 ? 0.0
                               : static_cast<double>(hits) /
                                     static_cast<double>(hits + misses);
    }

    // --- output checks -------------------------------------------------
    // Every answer was served from the one published epoch: no torn read.
    // Billing: the write-ahead ledger holds exactly one charge per
    // admitted request, for the megabytes the workload registry resolves,
    // and the meters charged what the responses say.
    const auto replay = service::TenantLedger::replay(world.ledger->bytes());
    report.require(!replay.tornTail && replay.duplicates == 0,
                   "ledger journal damaged");
    for (std::size_t c = 0; c < kClients; ++c) {
        const std::string tenant = "tenant-" + std::to_string(c);
        // logs[c] is this tenant's client; the warm-up log (index
        // kClients) billed tenant-0.
        double expectedMb = 0.0;
        double chargedUsd = 0.0;
        std::uint64_t charges = 0;
        for (std::size_t i = 0; i < logs.size(); ++i) {
            if (i % kClients != c) {
                continue;
            }
            report.require(logs[i].tornReads == 0,
                           "response digest differs from the snapshot");
            expectedMb += logs[i].expectedMb;
            chargedUsd += logs[i].chargedUsd;
            charges += logs[i].charges;
        }
        const auto it = replay.tenants.find(tenant);
        const bool found = it != replay.tenants.end();
        const double ledgerMb =
            found ? it->second.peakMb + it->second.offPeakMb : 0.0;
        report.require(found && it->second.charges == charges,
                       tenant + ": ledger charge count differs from the "
                                "admitted requests");
        report.require(std::abs(ledgerMb - expectedMb) <=
                           1e-9 * std::max(1.0, expectedMb),
                       tenant + ": ledger megabytes differ from the "
                                "registry's resolved costs");
        const double spent = svc.admission().spentUsd(tenant);
        report.require(std::abs(spent - chargedUsd) <=
                           1e-9 * std::max(1.0, spent),
                       tenant + ": meter spend differs from the charges on "
                                "the responses");
    }
    // Answers: the first session of each kind, recompiled and executed
    // directly through the planner, gives the service's answer.
    const plan::CampaignPlanner planner{world.snapshot->substrate()};
    for (const ClientLog& log : logs) {
        for (const auto& [text, answer] : log.samples) {
            const auto question = plan::parseQuestion(text).valueOrRaise();
            const auto compiled = planner.compile(question).valueOrRaise();
            const plan::CampaignReport direct = planner.execute(compiled);
            report.require(direct.answer == answer,
                           "service answer differs from the direct planner "
                           "for: " + question.name);
        }
    }

    return report;
}

} // namespace perfbench
