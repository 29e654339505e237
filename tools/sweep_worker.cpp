/**
 * @file
 * sweep_worker — execute one shard of a named sweep grid and emit a
 * self-checking pp.shard.v1 fragment.
 *
 * The worker end of the multi-process sweep pipeline (exec/). A
 * supervisor (tools/sweep_supervise, or a harness's --shards mode) and
 * its workers agree on the exact spec list by naming a grid
 * (driver/grids.hh) both construct deterministically; the worker
 * executes specs [B, E) and writes its fragment atomically. Faults are
 * injected via the PP_FAULT environment variable (exec/fault.hh) —
 * crash, hang, truncate, corrupt, corrupt-trace — so every supervisor
 * failure path is reproducible from the command line:
 *
 *   PP_FAULT=crash sweep_worker --grid smoke --warmup 1000 \
 *     --instructions 5000 --shard-range 0:3 --shard-out frag.json
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "driver/grids.hh"
#include "driver/sweep_engine.hh"
#include "exec/shard.hh"
#include "sim/simulator.hh"

namespace
{

void
usage(const char *prog)
{
    std::fprintf(stderr,
        "%s — execute one shard of a named sweep grid\n\n"
        "  --grid NAME        grid to enumerate (fig5, smoke)\n"
        "  --warmup N         warmup instructions (default: REPRO_WARMUP"
        " or 150000)\n"
        "  --instructions N   measured instructions (default:"
        " REPRO_INSTRUCTIONS or 1000000)\n"
        "  --filter REGEX     keep only benchmarks matching REGEX\n"
        "  --trace-dir D      replay workloads from the traces in D\n"
        "  --result-cache-dir D  content-addressed result cache in D"
        " (shared across workers)\n"
        "  --threads N        worker threads (default: hardware)\n"
        "  --shard-range B:E  spec range to execute (default: all)\n"
        "  --shard-out FILE   fragment output path (required)\n"
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace pp;

    std::string grid;
    std::string filter;
    std::string trace_dir;
    std::string result_cache_dir;
    std::string out_path;
    std::uint64_t warmup = sim::defaultWarmup();
    std::uint64_t measure = sim::defaultInstructions();
    unsigned threads = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool have_range = false;

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
        } else if (std::strcmp(a, "--threads") == 0) {
            threads =
                static_cast<unsigned>(parseU64(a, need_value(i)));
            ++i;
        } else if (std::strcmp(a, "--shard-range") == 0) {
            const std::string range = need_value(i);
            ++i;
            const std::size_t colon = range.find(':');
            if (colon == std::string::npos)
                fatal("bad --shard-range '" + range + "' (want B:E)");
            begin = parseU64("--shard-range",
                             range.substr(0, colon).c_str());
            end = parseU64("--shard-range",
                           range.substr(colon + 1).c_str());
            have_range = true;
        } else if (std::strcmp(a, "--shard-out") == 0) {
            out_path = need_value(i);
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
    if (out_path.empty())
        fatal("--shard-out is required (see --help)");

    driver::RunMatrix matrix = driver::namedGrid(grid);
    matrix.window(warmup, measure).filterBenchmarks(filter);
    std::vector<driver::RunSpec> specs = matrix.specs();
    if (specs.empty())
        fatal("grid '" + grid + "' is empty after filtering");
    sim::applyTraceDir(specs, trace_dir);
    if (!have_range) {
        begin = 0;
        end = specs.size();
    }

    exec::runShardWorker(specs, begin, end, threads, out_path,
                         result_cache_dir);
    return 0;
}
