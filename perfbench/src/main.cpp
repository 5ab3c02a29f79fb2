// End-to-end benchmark of the observatory: four workloads, one per path a
// user of the system sees (see perfbench/README.md).
//
//   perfbench --workload <service|catalog|outage|continental>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress and any failed output check on stderr, and as the last
// line of stdout one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exit code 0 means the run completed (its correctness is
// in the JSON); anything else means no result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include <unistd.h>

#include "harness.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"latency_p10_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"admission_us", "us"},
    {"estimate_ms", "ms"},
    {"plan_ms", "ms"},
    {"handler_ms", "ms"},
    {"queue_wait_ms", "ms"},
    {"oracle_cache_hit_rate", "ratio"},
    {"catalog_parse_ms", "ms"},
    {"catalog_compile_ms", "ms"},
    {"oracle_builds", "count"},
    {"oracle_build_ms", "ms"},
    {"scoring_ms", "ms"},
    {"dedup_hit_rate", "ratio"},
    {"dirty_destinations", "count"},
    {"pool_busy_share", "ratio"},
    {"capture_ms", "ms"},
    {"consume_ms", "ms"},
    {"checkpoint_us", "us"},
    {"checkpoints", "count"},
    {"log_bytes_per_event", "B"},
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <service|catalog|outage|"
                 "continental> --seed <n> --seconds <s> --trace <0|1>\n";
    std::exit(2);
}

Options parseArgs(int argc, char** argv) {
    Options options;
    bool haveWorkload = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + std::string{flag});
        }
        const std::string value = argv[i + 1];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                options.workload = value;
                haveWorkload = true;
                used = value.size();
            } else if (flag == "--seed") {
                options.seed = std::stoull(value, &used);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value, &used);
            } else if (flag == "--trace") {
                options.trace = std::stoi(value, &used) != 0;
            } else {
                usage("unknown flag " + std::string{flag});
            }
            if (used != value.size()) {
                usage("bad value '" + value + "' for " + std::string{flag});
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + std::string{flag});
        }
    }
    if (!haveWorkload) {
        usage("--workload is required");
    }
    if (!(options.seconds > 0.0) || !std::isfinite(options.seconds)) {
        usage("--seconds must be positive");
    }
    return options;
}

std::string number(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

template <std::size_t N>
std::string metricsJson(const Report& report, const MetricSpec (&specs)[N],
                        bool fillMissing) {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < N; ++i) {
        const auto it = report.metrics.find(specs[i].name);
        if (it == report.metrics.end() && !fillMissing) {
            throw std::logic_error{std::string{"workload did not report "} +
                                   specs[i].name};
        }
        // A layer the workload does not pass through reads 0.
        const double value = it == report.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(value)) {
            throw std::logic_error{std::string{"non-finite metric "} +
                                   specs[i].name};
        }
        out << (i == 0 ? "" : ", ") << "\"" << specs[i].name
            << "\": {\"value\": " << number(value) << ", \"unit\": \""
            << specs[i].unit << "\"}";
    }
    out << "}";
    return out.str();
}

/// The host shape, so results from differently sized machines are never
/// compared unknowingly.
void printHost() {
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long pageSize = sysconf(_SC_PAGE_SIZE);
    std::cerr << "host: " << std::thread::hardware_concurrency()
              << " hardware threads, "
              << (pages > 0 && pageSize > 0
                      ? static_cast<long long>(pages) * pageSize / (1 << 20)
                      : 0)
              << " MiB memory"
#ifdef NDEBUG
              << ", optimized build\n";
#else
              << ", assertions-enabled build\n";
#endif
}

} // namespace

int main(int argc, char** argv) {
    const Options options = parseArgs(argc, argv);
    printHost();
    try {
        Report report;
        if (options.workload == "service") {
            report = perfbench::runService(options);
        } else if (options.workload == "catalog") {
            report = perfbench::runCatalog(options);
        } else if (options.workload == "outage") {
            report = perfbench::runOutage(options);
        } else if (options.workload == "continental") {
            report = perfbench::runContinental(options);
        } else {
            usage("unknown workload '" + options.workload + "'");
        }
        if (report.attempted == 0) {
            throw std::logic_error{"no operation completed in the run"};
        }
        const std::string metrics =
            options.trace ? metricsJson(report, kPerLayer, true)
                          : metricsJson(report, kEndToEnd, false);
        for (const std::string& problem : report.problems) {
            std::cerr << "check failed: " << problem << "\n";
        }
        std::cout << "{\"correct\": "
                  << (report.problems.empty() ? "true" : "false")
                  << ", \"attempted\": " << report.attempted
                  << ", \"failed\": " << report.failed
                  << ", \"metrics\": " << metrics << "}" << std::endl;
        return 0;
    } catch (const std::exception& error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 1;
    }
}
