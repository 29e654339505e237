/**
 * @file
 * Result sinks for sweep output: machine-readable JSON and CSV with a
 * stable schema (benchmark, scheme, ipc, mispred %, breakdown counters),
 * plus the per-suite aggregation the paper's INT/FP summaries use.
 *
 * Serialization is fully deterministic — fixed key order, fixed float
 * formatting — so the same (specs, results) pair always produces the
 * same bytes, whatever thread count computed it. One deliberate
 * exception: the wall-time perf samples in the JSON documents (every
 * key ending in "host_ms"); byte-identity comparisons scrub them with
 * scrubHostMs(). The sampled-simulation fields (sampled,
 * measured_insts, ipc_error_bound, detailed_insts) are deterministic.
 */

#ifndef PP_DRIVER_RESULT_SINK_HH
#define PP_DRIVER_RESULT_SINK_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json_min.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "sim/simulator.hh"

namespace pp
{
namespace driver
{

/**
 * Minimal deterministic JSON emitter (objects, arrays, scalars).
 * Doubles are printed with %.17g so values round-trip exactly and the
 * bytes never depend on locale or stream state.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &key(const std::string &k);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(bool v);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

  private:
    void separate();

    std::ostream &os_;
    std::vector<bool> firstInScope_{true};
    bool afterKey_ = false;
};

/**
 * Open @p path ("-" = stdout) and run @p emit on it. fatal() if the
 * file cannot be opened or the stream is bad after emitting (e.g. disk
 * full), so a truncated document can never pass silently. File targets
 * are written atomically (tmp + rename, common/atomic_io.hh): a killed
 * process leaves either the previous complete document or the new one,
 * never a torn prefix.
 */
void withOutputStream(const std::string &path,
                      const std::function<void(std::ostream &)> &emit);

/**
 * Emit one pp.sweep.v1 run object for (spec, result) — the exact field
 * set and order of JsonSink's runs array. Shared with the shard-
 * fragment writer (exec/shard.cc) so a fragment's run objects are
 * byte-identical to the objects the merged document re-emits, which is
 * what makes supervised multi-process sweeps byte-identical to clean
 * single-process ones.
 */
void writeRunJson(JsonWriter &w, const RunSpec &spec,
                  const sim::RunResult &result);

/** A result object that cannot be rebuilt from its JSON form. */
class ResultParseError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Rebuild a sim::RunResult from one pp.sweep.v1 / pp.shard.v1 run
 * object — the exact inverse of writeRunJson for every field that
 * emitter reads from the result. Numbers round-trip exactly (%.17g
 * doubles, u64 counters far below 2^53), so re-emitting the parsed
 * result reproduces the original bytes. Throws ResultParseError on a
 * missing or mistyped field (the shard supervisor classifies that as
 * corrupt output; the result cache treats it as a miss).
 */
sim::RunResult parseRunJson(const jsonmin::JsonValue &run);

/** parseRunJson over serialized text (one run object). */
sim::RunResult parseRunJson(const std::string &text);

/**
 * @p json with the value of every key ending in "host_ms" set to 0:
 * the per-run host times, their build/ff/window (pp.sweep.v1) and
 * build/stream/replay (pp.replay.v1) breakdowns and the summaries'
 * total_host_ms — the only nondeterministic fields either emitter
 * writes. Two scrubbed documents of the same sweep compare byte for
 * byte.
 */
std::string scrubHostMs(const std::string &json);

/** Abstract sink: serialize one sweep (specs + aligned results). */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;
    virtual void write(std::ostream &os, const std::vector<RunSpec> &specs,
                       const std::vector<sim::RunResult> &results) const = 0;

    /** Serialize to a string (the byte-identity unit tests use this). */
    std::string toString(const std::vector<RunSpec> &specs,
                         const std::vector<sim::RunResult> &results) const;

    /** Serialize to @p path; fatal() on I/O failure. */
    void writeFile(const std::string &path,
                   const std::vector<RunSpec> &specs,
                   const std::vector<sim::RunResult> &results) const;
};

/** JSON document: {"schema": "pp.sweep.v1", "runs": [...]}. */
class JsonSink : public ResultSink
{
  public:
    JsonSink() = default;

    /**
     * With engine counters the summary block additionally reports the
     * shared binary/decoded-program/trace cache statistics
     * (binaries_built, decoded_programs, decoded_cache_hits,
     * traces_loaded, trace_cache_hits) — all deterministic, so
     * byte-identity comparisons need no extra scrubbing.
     */
    explicit JsonSink(const SweepCounters &counters)
        : counters_(counters), haveCounters_(true)
    {}

    void write(std::ostream &os, const std::vector<RunSpec> &specs,
               const std::vector<sim::RunResult> &results) const override;

  private:
    SweepCounters counters_;
    bool haveCounters_ = false;
};

/** Flat CSV, one row per run, same fields as the JSON runs. */
class CsvSink : public ResultSink
{
  public:
    void write(std::ostream &os, const std::vector<RunSpec> &specs,
               const std::vector<sim::RunResult> &results) const override;
};

/**
 * Per-scheme summary over a subset of runs — the "average over SPECint /
 * SPECfp" rows of the paper's figures.
 */
struct SchemeAggregate
{
    std::string scheme;         ///< scheme[/config] axis label
    std::string suite;          ///< "int", "fp" or "all"
    std::size_t runs = 0;
    double meanIpc = 0.0;
    double geomeanIpc = 0.0;
    double meanMispredPct = 0.0;
    double meanAccuracyPct = 0.0;
    double meanEarlyResolvedPct = 0.0;
};

/**
 * Aggregate results per scheme axis, split into int/fp/all suites.
 * Scheme order follows first appearance in @p specs; within one scheme
 * the suites are ordered int, fp, all (suites with no runs are omitted).
 */
std::vector<SchemeAggregate>
aggregate(const std::vector<RunSpec> &specs,
          const std::vector<sim::RunResult> &results);

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_RESULT_SINK_HH
