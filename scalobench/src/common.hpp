/**
 * @file
 * Shared plumbing of the repository benchmark: command-line options,
 * host timing, the in-memory span recorder of traced runs, and the
 * raw-result JSON writer that run.py turns into metrics.
 *
 * The binary only measures and checks; every statistic (percentiles,
 * max_qps, self times) is derived by scalobench/stats.py from the raw
 * samples written here, so the rules live in one tested place. The
 * one rule the binary needs while running, whether a rate-ladder step
 * passed, is stats.step_passes mirrored in query_serve.cpp; run.py
 * fails the run if the two verdicts ever differ.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace scalobench {

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
millis(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** The options every workload receives, all given explicitly. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Measured phase length; the workloads budget against it. */
    double seconds = 0.0;
    bool trace = false;
    /** Directory every file of the run is written to. */
    std::string out;
};

/**
 * One recorded span: a call the benchmark made into a layer (or an
 * interval derived from what that call reported). Spans of one
 * request share @ref request; @ref parent indexes the causing span
 * (-1 for roots). Times are nanoseconds since the recorder's epoch.
 */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
};

/**
 * Append-only span store, kept in memory and written out once the
 * run ends. Disabled recorders ignore every call, so untraced runs
 * pay one branch per boundary. Not thread-safe: each workload records
 * from one thread.
 */
class SpanRecorder
{
  public:
    SpanRecorder(bool enabled, Clock::time_point epoch)
        : on(enabled), epoch(epoch)
    {}

    /** @return the new span's index, or -1 when disabled. */
    std::int64_t
    add(const char *name, Clock::time_point start,
        Clock::time_point end, std::int64_t parent = -1,
        std::uint64_t request = 0)
    {
        if (!on)
            return -1;
        spans.push_back({name, ns(start), ns(end), parent, request});
        return static_cast<std::int64_t>(spans.size() - 1);
    }

    /** Set the end of span @p index (a root opened before its
     *  children's times were known). */
    void
    close(std::int64_t index, Clock::time_point end)
    {
        if (index >= 0)
            spans[static_cast<std::size_t>(index)].endNs = ns(end);
    }

    const std::vector<Span> &all() const { return spans; }

  private:
    std::int64_t
    ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch)
            .count();
    }

    bool on;
    Clock::time_point epoch;
    std::vector<Span> spans;
};

/** A correctness check; any failed check fails the run. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/**
 * Minimal streaming JSON writer for the raw result: objects, arrays,
 * numbers at full precision, and escaped strings. Keys and values
 * are emitted in call order.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject(const char *key = nullptr);
    JsonWriter &endObject();
    JsonWriter &beginArray(const char *key = nullptr);
    JsonWriter &endArray();
    JsonWriter &value(const char *key, double number);
    JsonWriter &value(const char *key, const std::string &text);
    JsonWriter &value(const char *key, bool flag);
    /** Array element forms. */
    JsonWriter &number(double number);
    JsonWriter &numbers(const char *key,
                        const std::vector<double> &values);

    const std::string &str() const { return out; }

  private:
    void separator(const char *key);
    void append(double number);

    std::string out;
    std::vector<bool> first;
};

/** Peak resident set size of this process so far, in KiB. */
long peakRssKb();

/**
 * Pin the calling thread to the @p slot-th CPU it may run on (threads
 * it starts afterwards inherit that). Does nothing, and returns false,
 * when fewer than @p slots CPUs are allowed.
 */
bool pinToCpuSlot(int slot, int slots);

/** Append the recorded spans / the checks to the raw result. */
void writeSpans(JsonWriter &json, const SpanRecorder &spans);
void writeChecks(JsonWriter &json, const std::vector<Check> &checks);

/** Build/host stamp: CPU count, build type, SIMD mode and width. */
void writeStamp(JsonWriter &json);

/** Write @p text to @p path. @return success */
bool writeFile(const std::string &path, const std::string &text);

/** The workloads (each writes <out>/raw.json). @return exit code */
int runQueryServe(const Options &options);
int runFabricChaos(const Options &options);

} // namespace scalobench
