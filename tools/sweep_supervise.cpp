/**
 * @file
 * sweep_supervise — fault-tolerant multi-process sweep of a named grid.
 *
 * The supervisor end of the exec/ pipeline: partitions the named grid
 * into spec-range shards, runs each shard in a sweep_worker child with
 * retry/timeout/backoff (exec/shard_supervisor.hh), and merges the
 * verified fragments into ordinary pp.sweep.v1 JSON/CSV documents that
 * are byte-identical (after the standard host_ms scrub) to a clean
 * single-process sweep of the same grid. An interrupted supervisor
 * re-run with the same --work-dir resumes from the completed-shard
 * journal.
 *
 *   sweep_supervise --grid fig5 --shards 4 --trace-dir traces \
 *     --inject-fault crash@0:1,hang@1:1 --json merged.json
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/atomic_io.hh"
#include "common/logging.hh"
#include "driver/grids.hh"
#include "driver/result_sink.hh"
#include "driver/sweep_engine.hh"
#include "exec/shard_supervisor.hh"
#include "obs/metrics.hh"
#include "sim/simulator.hh"

namespace
{

void
usage(const char *prog)
{
    std::fprintf(stderr,
        "%s — fault-tolerant multi-process sweep of a named grid\n\n"
        "  --grid NAME        grid to sweep (fig5, smoke)\n"
        "  --shards N         worker shard count (default 4)\n"
        "  --parallel N       concurrent workers (default: min(shards,"
        " hardware))\n"
        "  --warmup N         warmup instructions (default: REPRO_WARMUP"
        " or 150000)\n"
        "  --instructions N   measured instructions (default:"
        " REPRO_INSTRUCTIONS or 1000000)\n"
        "  --filter REGEX     keep only benchmarks matching REGEX\n"
        "  --trace-dir D      replay workloads from the traces in D\n"
        "  --result-cache-dir D  content-addressed result cache in D"
        " (shared across\n"
        "                     workers; a warm rerun simulates nothing)\n"
        "  --worker PATH      worker binary (default: sweep_worker beside"
        " this one)\n"
        "  --worker-threads N threads per worker (default: 1)\n"
        "  --json PATH        write merged results as JSON (\"-\" ="
        " stdout)\n"
        "  --csv PATH         write merged results as CSV\n"
        "  --metrics-json F   dump the metrics registry snapshot to F\n"
        "  --work-dir D       fragment/journal directory (default:"
        " <json>.shards or \"shards\")\n"
        "  --no-resume        ignore a previous run's journal\n"
        "  --timeout-ms N     per-attempt worker deadline (default"
        " 120000; 0 = none)\n"
        "  --max-attempts N   attempts per shard (default 3)\n"
        "  --backoff-ms N     retry backoff base (default 100)\n"
        "  --inject-fault S   deterministic fault plan, e.g."
        " crash@0:1,hang@1:1\n"
        "                     (classes: crash, hang, truncate, corrupt,"
        " corrupt-trace)\n"
        "  --help             this text\n",
        prog);
}

std::uint64_t
parseU64(const char *flag, const char *value)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0')
        pp::fatal(std::string("invalid number for ") + flag + ": '" +
                  value + "'");
    return v;
}

std::string
siblingWorker(const char *argv0)
{
    const std::string self = argv0;
    const std::size_t slash = self.rfind('/');
    if (slash == std::string::npos)
        return "sweep_worker"; // PATH lookup
    return self.substr(0, slash + 1) + "sweep_worker";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pp;

    std::string grid;
    std::string filter;
    std::string trace_dir;
    std::string result_cache_dir;
    std::string worker;
    std::string json_path;
    std::string csv_path;
    std::string metrics_path;
    std::uint64_t warmup = sim::defaultWarmup();
    std::uint64_t measure = sim::defaultInstructions();
    unsigned worker_threads = 1;
    exec::ShardOptions sopts;

    auto need_value = [&](int i) -> const char * {
        if (i + 1 >= argc) {
            usage(argv[0]);
            fatal(std::string("missing value for ") + argv[i]);
        }
        return argv[i + 1];
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--grid") == 0) {
            grid = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--shards") == 0) {
            sopts.shards = parseU64(a, need_value(i));
            ++i;
        } else if (std::strcmp(a, "--parallel") == 0) {
            sopts.parallel =
                static_cast<unsigned>(parseU64(a, need_value(i)));
            ++i;
        } else if (std::strcmp(a, "--warmup") == 0) {
            warmup = parseU64(a, need_value(i));
            ++i;
        } else if (std::strcmp(a, "--instructions") == 0) {
            measure = parseU64(a, need_value(i));
            ++i;
        } else if (std::strcmp(a, "--filter") == 0) {
            filter = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--trace-dir") == 0) {
            trace_dir = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--result-cache-dir") == 0) {
            result_cache_dir = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--worker") == 0) {
            worker = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--worker-threads") == 0) {
            worker_threads =
                static_cast<unsigned>(parseU64(a, need_value(i)));
            ++i;
        } else if (std::strcmp(a, "--json") == 0) {
            json_path = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--csv") == 0) {
            csv_path = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--metrics-json") == 0) {
            metrics_path = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--work-dir") == 0) {
            sopts.workDir = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--no-resume") == 0) {
            sopts.resume = false;
        } else if (std::strcmp(a, "--timeout-ms") == 0) {
            sopts.timeoutMs = parseU64(a, need_value(i));
            ++i;
        } else if (std::strcmp(a, "--max-attempts") == 0) {
            sopts.maxAttempts =
                static_cast<unsigned>(parseU64(a, need_value(i)));
            ++i;
        } else if (std::strcmp(a, "--backoff-ms") == 0) {
            sopts.backoffBaseMs = parseU64(a, need_value(i));
            ++i;
        } else if (std::strcmp(a, "--inject-fault") == 0) {
            sopts.faultSpec = need_value(i);
            ++i;
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal(std::string("unknown argument: ") + a);
        }
    }
    if (grid.empty())
        fatal("--grid is required (see --help)");
    if (worker.empty())
        worker = siblingWorker(argv[0]);
    if (sopts.workDir == "shards" && !json_path.empty() &&
        json_path != "-")
        sopts.workDir = json_path + ".shards";

    driver::RunMatrix matrix = driver::namedGrid(grid);
    matrix.window(warmup, measure).filterBenchmarks(filter);
    std::vector<driver::RunSpec> specs = matrix.specs();
    if (specs.empty())
        fatal("grid '" + grid + "' is empty after filtering");
    sim::applyTraceDir(specs, trace_dir);

    // The worker re-derives the identical spec list from the same grid
    // arguments; the supervisor appends only the per-attempt range.
    sopts.workerCmd = {worker, "--grid", grid,
                       "--warmup", std::to_string(warmup),
                       "--instructions", std::to_string(measure),
                       "--threads", std::to_string(worker_threads)};
    if (!filter.empty()) {
        sopts.workerCmd.push_back("--filter");
        sopts.workerCmd.push_back(filter);
    }
    if (!trace_dir.empty()) {
        sopts.workerCmd.push_back("--trace-dir");
        sopts.workerCmd.push_back(trace_dir);
    }
    if (!result_cache_dir.empty()) {
        sopts.workerCmd.push_back("--result-cache-dir");
        sopts.workerCmd.push_back(result_cache_dir);
    }

    exec::ShardSupervisor supervisor(sopts);
    informf("supervising %zu specs across %zu shard(s)", specs.size(),
            std::min(sopts.shards, specs.size()));
    const std::vector<sim::RunResult> results = supervisor.run(specs);

    // The merged document's summary counters are a pure function of the
    // spec list (driver::sweepCountersFor), so these bytes match a
    // clean single-process run of the same grid.
    const driver::SweepCounters counters =
        driver::sweepCountersFor(specs, false);
    if (!json_path.empty())
        driver::JsonSink{counters}.writeFile(json_path, specs, results);
    if (!csv_path.empty())
        driver::CsvSink{}.writeFile(csv_path, specs, results);
    if (!metrics_path.empty()) {
        std::string error;
        if (!writeFileAtomic(metrics_path,
                             obs::metrics().snapshot().toJson() + "\n",
                             &error))
            fatal("cannot write metrics snapshot: " + error);
    }

    const exec::ShardStats &st = supervisor.stats();
    informf("sweep complete: %zu runs, %llu attempt(s), %llu retr%s, "
            "%llu shard(s) resumed",
            results.size(),
            static_cast<unsigned long long>(st.attempts),
            static_cast<unsigned long long>(st.retries),
            st.retries == 1 ? "y" : "ies",
            static_cast<unsigned long long>(st.resumedShards));
    if (!result_cache_dir.empty()) {
        informf("result cache: %llu hit(s), %llu run(s) simulated",
                static_cast<unsigned long long>(st.resultCacheHits),
                static_cast<unsigned long long>(st.runsSimulated));
    }
    return 0;
}
