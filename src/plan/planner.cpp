#include "plan/planner.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_set>

#include "netbase/error.hpp"
#include "netbase/region.hpp"
#include "persist/bytes.hpp"
#include "routing/detour.hpp"
#include "scenario/sampler.hpp"

namespace aio::plan {

namespace {

[[nodiscard]] std::vector<topo::AsIndex>
eyeballsInCountry(const topo::Topology& topology, std::string_view iso2) {
    std::vector<topo::AsIndex> out;
    for (const topo::AsIndex as : topology.asesInCountry(iso2)) {
        if (topo::isEyeball(topology.as(as).type)) {
            out.push_back(as);
        }
    }
    return out;
}

/// Seed of one task's private rng streams: pure in (substrate seed, task
/// id), so neither execution order nor thread count can shift a draw.
[[nodiscard]] std::uint64_t taskSeed(const core::Substrate& substrate,
                                     std::string_view taskId) {
    return substrate.seed() ^ scenario::tagHash(taskId);
}

/// Stream tags of the per-task rng forks.
constexpr std::uint64_t kSampleStream = 1;
constexpr std::uint64_t kJitterStream = 2;

void writeTask(persist::ByteWriter& writer, const PlannedTask& task) {
    writer.str(task.id);
    writer.u8(static_cast<std::uint8_t>(task.kind));
    writer.str(task.country);
    writer.u64(static_cast<std::uint64_t>(task.vantage));
    writer.u64(static_cast<std::uint64_t>(task.samples));
    writer.f64(task.payloadMb);
    writer.f64(task.utility);
    writer.boolean(task.offPeak);
    writer.boolean(task.prunedByCache);
    writer.boolean(task.scenario.has_value());
    if (task.scenario) {
        const core::ScenarioSpec& spec = *task.scenario;
        writer.str(spec.name);
        writer.u8(static_cast<std::uint8_t>(spec.eventType));
        writer.u32(static_cast<std::uint32_t>(spec.cablesAdded.size()));
        writer.u32(static_cast<std::uint32_t>(spec.cutCables.size()));
        for (const std::string& cable : spec.cutCables) {
            writer.str(cable);
        }
        writer.u32(static_cast<std::uint32_t>(spec.countries.size()));
        for (const std::string& country : spec.countries) {
            writer.str(country);
        }
        writer.f64(spec.startDay);
        writer.f64(spec.repairDays);
        writer.boolean(spec.dnsOverride.has_value());
        writer.boolean(spec.contentOverride.has_value());
        writer.boolean(spec.linkMapOverride.has_value());
    }
}

} // namespace

std::string_view taskKindName(TaskKind kind) {
    switch (kind) {
    case TaskKind::ContentAudit: return "content-audit";
    case TaskKind::DetourSample: return "detour-sample";
    case TaskKind::ScenarioSweep: return "scenario-sweep";
    case TaskKind::VantageProbe: return "vantage-probe";
    }
    return "?";
}

void PlannerConfig::validate() const {
    const auto finitePositive = [](double value) {
        return std::isfinite(value) && value > 0.0;
    };
    AIO_EXPECTS(finitePositive(traceMbPerSample),
                "traceMbPerSample must be positive and finite");
    AIO_EXPECTS(finitePositive(auditMbPerSite),
                "auditMbPerSite must be positive and finite");
    AIO_EXPECTS(finitePositive(sweepAnswerMb),
                "sweepAnswerMb must be positive and finite");
    AIO_EXPECTS(finitePositive(cachedAnswerMb),
                "cachedAnswerMb must be positive and finite");
    AIO_EXPECTS(cachedAnswerMb <= sweepAnswerMb,
                "a cached answer cannot cost more than a fresh one");
    AIO_EXPECTS(std::isfinite(retransJitterMax) && retransJitterMax >= 0.0 &&
                    retransJitterMax < 1.0,
                "retransJitterMax must lie in [0, 1)");
    pricing.validate();
}

std::uint64_t CampaignPlan::digest() const {
    persist::ByteWriter writer;
    writer.str(question.name);
    writer.u8(static_cast<std::uint8_t>(question.kind));
    writer.u32(static_cast<std::uint32_t>(question.countries.size()));
    for (const std::string& country : question.countries) {
        writer.str(country);
    }
    writer.boolean(question.landlockedOnly);
    writer.i32(question.topSites);
    writer.u64(static_cast<std::uint64_t>(question.samplePairs));
    writer.u32(static_cast<std::uint32_t>(question.corridor.size()));
    for (const std::string& cable : question.corridor) {
        writer.str(cable);
    }
    writer.f64(question.repairDays);
    writer.f64(question.budgetUsd);

    writer.u32(static_cast<std::uint32_t>(vantages.size()));
    for (const topo::AsIndex as : vantages) {
        writer.u64(static_cast<std::uint64_t>(as));
    }
    writer.u32(static_cast<std::uint32_t>(tasks.size()));
    for (const PlannedTask& task : tasks) {
        writeTask(writer, task);
    }
    writer.u32(static_cast<std::uint32_t>(dropped.size()));
    for (const PlannedTask& task : dropped) {
        writeTask(writer, task);
    }

    writer.f64(estimate.wireMb);
    writer.f64(estimate.maxWireMb);
    writer.f64(estimate.costUsd);
    writer.u64(static_cast<std::uint64_t>(estimate.tasks));
    writer.u64(static_cast<std::uint64_t>(estimate.prunedTasks));
    writer.u64(static_cast<std::uint64_t>(estimate.coverage.countriesRequested));
    writer.u64(static_cast<std::uint64_t>(estimate.coverage.countriesPlanned));
    writer.u64(static_cast<std::uint64_t>(estimate.coverage.ixpsCovered));
    writer.u64(static_cast<std::uint64_t>(estimate.coverage.ixpsTotal));
    return persist::fnv1a64(writer.bytes());
}

CampaignPlanner::CampaignPlanner(const core::Substrate& substrate,
                                 PlannerConfig config)
    : substrate_(&substrate), config_(config) {
    config_.validate();
}

net::Expected<CampaignPlanner::Scope>
CampaignPlanner::resolveScope(const MeasurementQuestion& question) const {
    using E = net::Expected<Scope>;
    const topo::Topology& topology = substrate_->topology();
    const net::CountryTable& world = net::CountryTable::world();

    std::vector<std::string> countries;
    if (question.countries.empty()) {
        for (const net::Country* country : world.african()) {
            if (!topology.asesInCountry(country->iso2).empty()) {
                countries.emplace_back(country->iso2);
            }
        }
    } else {
        countries = question.countries;
    }
    std::ranges::sort(countries);
    countries.erase(std::unique(countries.begin(), countries.end()),
                    countries.end());
    if (question.landlockedOnly) {
        std::erase_if(countries, [&](const std::string& iso2) {
            return world.byCode(iso2).coastal;
        });
    }
    if (countries.empty()) {
        return E{net::Error::precondition(
            std::string{"question '"} + question.name +
            "': scope resolves to no countries")};
    }

    std::vector<topo::AsIndex> candidates;
    for (const std::string& iso2 : countries) {
        for (const topo::AsIndex as : eyeballsInCountry(topology, iso2)) {
            candidates.push_back(as);
        }
    }
    std::ranges::sort(candidates);
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    Scope scope;
    scope.countries = std::move(countries);
    scope.cover = core::VantageSelector{topology}.minimalIxpCover(candidates);
    return scope;
}

topo::AsIndex
CampaignPlanner::vantageFor(std::string_view country,
                            const std::vector<topo::AsIndex>& chosen) const {
    const topo::Topology& topology = substrate_->topology();
    for (const topo::AsIndex as : chosen) {
        if (topology.as(as).countryCode == country) {
            return as;
        }
    }
    const std::vector<topo::AsIndex> eyeballs =
        eyeballsInCountry(topology, country);
    if (!eyeballs.empty()) {
        return eyeballs.front();
    }
    if (!chosen.empty()) {
        return chosen.front();
    }
    return 0;
}

double CampaignPlanner::taskPayloadMb(const PlannedTask& task) const {
    switch (task.kind) {
    case TaskKind::ContentAudit:
        return config_.auditMbPerSite * static_cast<double>(task.samples);
    case TaskKind::DetourSample:
    case TaskKind::VantageProbe:
        return config_.traceMbPerSample * static_cast<double>(task.samples);
    case TaskKind::ScenarioSweep:
        return task.prunedByCache ? config_.cachedAnswerMb
                                  : config_.sweepAnswerMb;
    }
    return 0.0;
}

std::vector<PlannedTask>
CampaignPlanner::enumerateTasks(const MeasurementQuestion& question,
                                const Scope& scope) const {
    const topo::Topology& topology = substrate_->topology();
    std::vector<PlannedTask> tasks;

    // Per-kind base utilities. Each task then gets a small rank-decrement
    // so utilities are pairwise distinct: the budget scheduler's density
    // sort is not stable, and distinct keys keep the order a pure
    // function of the plan rather than of the sort implementation.
    constexpr double kCorridorUtility = 20.0;
    constexpr double kPerCableUtility = 10.0;
    constexpr double kPerCountryUtility = 8.0;
    constexpr double kProbeUtility = 6.0;

    switch (question.kind) {
    case QuestionKind::ContentLocality:
        for (const std::string& iso2 : scope.countries) {
            const std::size_t available =
                substrate_->catalog().sitesFor(iso2).size();
            const std::size_t samples =
                std::min<std::size_t>(available,
                                      static_cast<std::size_t>(
                                          question.topSites));
            if (samples == 0) {
                continue; // no catalog for this country: honest coverage gap
            }
            PlannedTask task;
            task.id = question.name + "/audit/" + iso2;
            task.kind = TaskKind::ContentAudit;
            task.country = iso2;
            task.vantage = vantageFor(iso2, scope.cover.chosenAses);
            task.samples = samples;
            task.utility = kPerCountryUtility;
            tasks.push_back(std::move(task));
        }
        break;
    case QuestionKind::DetourRate:
        for (const std::string& iso2 : scope.countries) {
            if (eyeballsInCountry(topology, iso2).empty()) {
                continue; // nowhere to sample from
            }
            PlannedTask task;
            task.id = question.name + "/detour/" + iso2;
            task.kind = TaskKind::DetourSample;
            task.country = iso2;
            task.vantage = vantageFor(iso2, scope.cover.chosenAses);
            task.samples = question.samplePairs;
            task.utility = kPerCountryUtility;
            tasks.push_back(std::move(task));
        }
        break;
    case QuestionKind::OutageExposure: {
        // The whole-corridor cut answers the headline question; the
        // per-cable cuts attribute it (skipped for a 1-cable corridor,
        // where they would duplicate the corridor task).
        PlannedTask corridor;
        corridor.id = question.name + "/sweep/corridor";
        corridor.kind = TaskKind::ScenarioSweep;
        corridor.samples = question.corridor.size();
        corridor.utility = kCorridorUtility;
        core::ScenarioSpec spec;
        spec.name = question.name + "#corridor";
        spec.cutCables = question.corridor;
        spec.repairDays = question.repairDays;
        corridor.scenario = std::move(spec);
        tasks.push_back(std::move(corridor));
        if (question.corridor.size() > 1) {
            for (const std::string& cable : question.corridor) {
                PlannedTask task;
                task.id = question.name + "/sweep/cut-" + cable;
                task.kind = TaskKind::ScenarioSweep;
                task.samples = 1;
                task.utility = kPerCableUtility;
                core::ScenarioSpec single;
                single.name = question.name + "#cut-" + cable;
                single.cutCables = {cable};
                single.repairDays = question.repairDays;
                task.scenario = std::move(single);
                tasks.push_back(std::move(task));
            }
        }
        break;
    }
    case QuestionKind::IxpCoverage:
        for (const topo::AsIndex as : scope.cover.chosenAses) {
            PlannedTask task;
            task.id = question.name + "/probe/as" +
                      std::to_string(topology.as(as).asn);
            task.kind = TaskKind::VantageProbe;
            task.country = topology.as(as).countryCode;
            task.vantage = as;
            task.samples = std::max<std::size_t>(
                std::size_t{1}, topology.ixpsOf(as).size());
            task.utility = kProbeUtility;
            tasks.push_back(std::move(task));
        }
        break;
    }

    for (std::size_t i = 0; i < tasks.size(); ++i) {
        tasks[i].utility -= 1e-3 * static_cast<double>(i);
    }
    return tasks;
}

net::Expected<CampaignPlan>
CampaignPlanner::compile(const MeasurementQuestion& question) const {
    using E = net::Expected<CampaignPlan>;
    if (auto valid = question.validate(*substrate_); !valid) {
        return E{valid.error()};
    }
    const auto scopeOrError = resolveScope(question);
    if (!scopeOrError) {
        return E{scopeOrError.error()};
    }
    const Scope& scope = *scopeOrError;

    std::vector<PlannedTask> tasks = enumerateTasks(question, scope);

    // Digest-peek prune: a scenario whose degraded routing state already
    // sits in the substrate's oracle cache is computable from the
    // snapshot, so it bills answer retrieval, not fresh computation.
    // Plan-time only — peek never builds anything, and execution derives
    // every answer through the sweep engine regardless, so answers stay
    // independent of cache temperature.
    route::OracleCache* cache = substrate_->oracleCache();
    for (PlannedTask& task : tasks) {
        if (task.scenario && cache != nullptr) {
            if (auto event =
                    task.scenario->makeEvent(substrate_->registry())) {
                // The same assessment stream the sweep's plan phase uses,
                // so the peeked digest is exactly the one it will look up.
                net::Rng rng = substrate_->assessStream();
                const route::LinkFilter filter =
                    substrate_->analyzer().filterFor(*event, rng);
                task.prunedByCache = cache->peek(filter) != nullptr;
            }
        }
        task.payloadMb = taskPayloadMb(task);
    }

    // Budget-aware ordering: lower every task onto the §7.1 scheduler.
    std::vector<core::MeasurementTask> metered;
    metered.reserve(tasks.size());
    for (const PlannedTask& task : tasks) {
        core::MeasurementTask mt;
        mt.id = task.id;
        mt.kind = std::string{taskKindName(task.kind)};
        mt.payloadBytesPerRun = task.payloadMb * 1e6;
        mt.utilityPerRun = task.utility;
        mt.desiredRuns = 1;
        mt.sharedGroup = -1;
        mt.offPeakOk = true;
        metered.push_back(std::move(mt));
    }
    core::Probe probe;
    probe.id = "planner";
    probe.countryCode = scope.countries.front();
    probe.monthlyBudgetUsd = question.budgetUsd;
    probe.pricing = config_.pricing;
    const core::BudgetPlan budget =
        core::BudgetScheduler{config_.scheduler}.plan(probe, metered,
                                                      question.budgetUsd);

    CampaignPlan plan;
    plan.question = question;
    plan.vantages = scope.cover.chosenAses;
    std::vector<bool> kept(tasks.size(), false);
    for (const core::BudgetPlan::Entry& entry : budget.entries) {
        const std::size_t index = entry.taskIndices.front();
        PlannedTask task = tasks[index];
        task.offPeak = entry.offPeak;
        plan.tasks.push_back(std::move(task));
        kept[index] = true;
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (!kept[i]) {
            plan.dropped.push_back(tasks[i]);
        }
    }

    // The pre-execution promise, billed exactly as execution will bill
    // (same tariff meter, same peak/off-peak split, overhead-adjusted
    // wire bytes) — only the bounded retransmission jitter separates it
    // from the actuals.
    core::TariffMeter meter{config_.pricing};
    CampaignEstimate& estimate = plan.estimate;
    for (const PlannedTask& task : plan.tasks) {
        const double wireMb = task.payloadMb * core::kPacketOverheadFactor;
        estimate.wireMb += wireMb;
        meter.add(wireMb, task.offPeak);
        if (task.prunedByCache) {
            ++estimate.prunedTasks;
        }
    }
    estimate.maxWireMb = estimate.wireMb * (1.0 + config_.retransJitterMax);
    estimate.costUsd = meter.totalCost();
    estimate.tasks = plan.tasks.size();

    CoverageEstimate& coverage = estimate.coverage;
    coverage.countriesRequested = scope.countries.size();
    if (question.kind == QuestionKind::OutageExposure) {
        // Scenario tasks answer for the whole scope at once.
        coverage.countriesPlanned =
            plan.tasks.empty() ? 0 : coverage.countriesRequested;
    } else {
        std::set<std::string, std::less<>> planned;
        for (const PlannedTask& task : plan.tasks) {
            if (!task.country.empty()) {
                planned.insert(task.country);
            }
        }
        coverage.countriesPlanned = planned.size();
    }
    coverage.ixpsTotal = scope.cover.totalIxps;
    if (question.kind == QuestionKind::IxpCoverage) {
        // Coverage shrinks with every probe task the budget dropped.
        std::set<topo::IxpIndex> covered;
        const std::vector<topo::IxpIndex> african =
            substrate_->topology().africanIxps();
        const std::set<topo::IxpIndex> africanSet(african.begin(),
                                                  african.end());
        for (const PlannedTask& task : plan.tasks) {
            for (const topo::IxpIndex ixp :
                 substrate_->topology().ixpsOf(task.vantage)) {
                if (africanSet.contains(ixp)) {
                    covered.insert(ixp);
                }
            }
        }
        coverage.ixpsCovered = covered.size();
    } else {
        coverage.ixpsCovered = scope.cover.coveredIxps;
    }
    return plan;
}

CampaignReport
CampaignPlanner::execute(const CampaignPlan& plan,
                         const ExecuteOptions& options) const {
    const topo::Topology& topology = substrate_->topology();
    CampaignReport report;
    core::TariffMeter meter{config_.pricing};

    // Billing pass: the wire carries the planned payload, packet
    // overhead, plus a bounded retransmission share drawn from the
    // task-keyed jitter stream — pure in (substrate seed, task id), so
    // billing is identical at any thread count or execution order, and
    // lands in [wireMb, maxWireMb] by construction.
    std::vector<core::ScenarioSpec> specs;
    for (const PlannedTask& task : plan.tasks) {
        if (options.cancel != nullptr) {
            options.cancel->checkpoint();
        }
        net::Rng base{taskSeed(*substrate_, task.id)};
        net::Rng jitter = base.fork(kJitterStream);
        const double wireMb = task.payloadMb * core::kPacketOverheadFactor *
                              (1.0 + config_.retransJitterMax *
                                         jitter.uniform01());
        report.actualWireMb += wireMb;
        meter.add(wireMb, task.offPeak);
        if (task.prunedByCache) {
            ++report.tasksPruned;
        }
        if (task.scenario) {
            specs.push_back(*task.scenario);
        }
    }
    report.tasksRun = plan.tasks.size();
    report.actualCostUsd = meter.totalCost();

    // What-if tasks lower onto the sweep engine as one batch (digest
    // dedupe and the oracle cache do the sharing; a fired deadline token
    // propagates straight through).
    sweep::SweepResult sweepResult;
    if (!specs.empty()) {
        sweep::SweepOptions sweepOptions;
        sweepOptions.cancel = options.cancel;
        sweepResult =
            sweep::ScenarioSweepEngine{*substrate_, sweepOptions}.run(specs);
    }

    // Answer assembly.
    std::map<std::string, CampaignAnswer::Row, std::less<>> rows;
    switch (plan.question.kind) {
    case QuestionKind::ContentLocality: {
        double overallNum = 0.0;
        double overallDen = 0.0;
        for (const PlannedTask& task : plan.tasks) {
            if (task.kind != TaskKind::ContentAudit) {
                continue;
            }
            std::vector<content::Website> sites =
                substrate_->catalog().sitesFor(task.country);
            std::ranges::sort(sites, [](const content::Website& a,
                                        const content::Website& b) {
                if (a.popularity != b.popularity) {
                    return a.popularity > b.popularity;
                }
                return a.domain < b.domain;
            });
            sites.resize(std::min(sites.size(), task.samples));
            double num = 0.0;
            double den = 0.0;
            for (const content::Website& site : sites) {
                den += site.popularity;
                if (content::isAfricanHosting(site.hosting)) {
                    num += site.popularity;
                }
            }
            CampaignAnswer::Row row;
            row.country = task.country;
            row.value = den > 0.0 ? num / den : 0.0;
            row.samples = sites.size();
            rows.emplace(task.country, std::move(row));
            overallNum += num;
            overallDen += den;
        }
        report.answer.overall =
            overallDen > 0.0 ? overallNum / overallDen : 0.0;
        break;
    }
    case QuestionKind::DetourRate: {
        const route::RouteOracle& oracle =
            *substrate_->analyzer().baselineOracle();
        const route::DetourAnalyzer detour{topology};
        std::vector<topo::AsIndex> pool;
        for (const topo::AsIndex as : topology.africanAses()) {
            if (topo::isEyeball(topology.as(as).type)) {
                pool.push_back(as);
            }
        }
        std::size_t totalDetours = 0;
        std::size_t totalClassified = 0;
        for (const PlannedTask& task : plan.tasks) {
            if (task.kind != TaskKind::DetourSample || pool.empty()) {
                continue;
            }
            const std::vector<topo::AsIndex> sources =
                eyeballsInCountry(topology, task.country);
            if (sources.empty()) {
                continue;
            }
            net::Rng base{taskSeed(*substrate_, task.id)};
            net::Rng rng = base.fork(kSampleStream);
            std::size_t detours = 0;
            std::size_t classified = 0;
            for (std::size_t draw = 0; draw < task.samples; ++draw) {
                const topo::AsIndex src = rng.pick(sources);
                const topo::AsIndex dst = rng.pick(pool);
                if (topology.as(src).countryCode ==
                    topology.as(dst).countryCode) {
                    continue;
                }
                const std::vector<topo::AsIndex> path =
                    oracle.path(src, dst);
                if (path.empty()) {
                    continue;
                }
                ++classified;
                if (detour.leavesAfrica(path)) {
                    ++detours;
                }
            }
            CampaignAnswer::Row row;
            row.country = task.country;
            row.value = classified > 0
                            ? static_cast<double>(detours) /
                                  static_cast<double>(classified)
                            : 0.0;
            row.samples = classified;
            rows.emplace(task.country, std::move(row));
            totalDetours += detours;
            totalClassified += classified;
        }
        report.answer.overall =
            totalClassified > 0 ? static_cast<double>(totalDetours) /
                                      static_cast<double>(totalClassified)
                                : 0.0;
        break;
    }
    case QuestionKind::OutageExposure: {
        // Scope resolution is deterministic, so re-deriving it here sees
        // exactly the countries compile() planned for.
        const Scope scope = resolveScope(plan.question).valueOrRaise();
        double lossSum = 0.0;
        for (const std::string& iso2 : scope.countries) {
            CampaignAnswer::Row row;
            row.country = iso2;
            for (const sweep::ScenarioResult& result :
                 sweepResult.scenarios) {
                if (!result.outcome) {
                    continue;
                }
                for (const outage::CountryImpact& impact :
                     (*result.outcome).countries) {
                    if (impact.country == iso2) {
                        row.value = std::max(row.value, impact.pageLoadLoss);
                        ++row.samples;
                    }
                }
            }
            lossSum += row.value;
            rows.emplace(iso2, std::move(row));
        }
        report.answer.overall =
            rows.empty() ? 0.0 : lossSum / static_cast<double>(rows.size());
        break;
    }
    case QuestionKind::IxpCoverage: {
        const std::vector<topo::IxpIndex> african = topology.africanIxps();
        const std::set<topo::IxpIndex> africanSet(african.begin(),
                                                  african.end());
        std::map<std::string, std::set<topo::IxpIndex>, std::less<>>
            perCountry;
        std::set<topo::IxpIndex> covered;
        for (const PlannedTask& task : plan.tasks) {
            if (task.kind != TaskKind::VantageProbe) {
                continue;
            }
            for (const topo::IxpIndex ixp : topology.ixpsOf(task.vantage)) {
                if (africanSet.contains(ixp)) {
                    perCountry[task.country].insert(ixp);
                    covered.insert(ixp);
                }
            }
            // A country row exists even when the vantage covers nothing.
            perCountry.try_emplace(task.country);
        }
        for (const auto& [iso2, ixps] : perCountry) {
            CampaignAnswer::Row row;
            row.country = iso2;
            row.value = static_cast<double>(ixps.size());
            row.samples = ixps.size();
            rows.emplace(iso2, std::move(row));
        }
        report.answer.overall =
            african.empty() ? 1.0
                            : static_cast<double>(covered.size()) /
                                  static_cast<double>(african.size());
        break;
    }
    }
    report.answer.rows.reserve(rows.size());
    for (auto& [iso2, row] : rows) {
        report.answer.rows.push_back(std::move(row));
    }

    // Hold the estimate to account.
    const CampaignEstimate& estimate = plan.estimate;
    report.estimateErrorShare =
        estimate.wireMb > 0.0
            ? report.actualWireMb / estimate.wireMb - 1.0
            : 0.0;
    constexpr double kSlack = 1e-9; // float-sum tolerance, not a loophole
    report.withinBound =
        report.actualWireMb >= estimate.wireMb * (1.0 - kSlack) &&
        report.actualWireMb <= estimate.maxWireMb * (1.0 + kSlack);
    return report;
}

} // namespace aio::plan
