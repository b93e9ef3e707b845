/**
 * @file
 * Structured event tracing for the node-level simulation runtime: a
 * `Trace` records typed, timestamped events (pipeline stage activity,
 * packet transmissions and corruptions, NVM writes, window drops) as
 * the discrete-event runtime executes, keeps per-node counters, and
 * exports Chrome trace-event JSON viewable in Perfetto or
 * chrome://tracing. Recording is optional everywhere: every runtime
 * entry point accepts a null trace and skips the bookkeeping.
 *
 * Timestamps sit on the same integer-microsecond grid as
 * `sim::Simulator`, so a trace of a fixed-seed run is byte-identical
 * across hosts and runs (asserted in tests/system_sim_test.cpp).
 *
 * Recording is cheap enough to leave on for a chaos run: a name is
 * interned once into a per-`Trace` table and an event is a 40-byte
 * POD carrying its id. The export sorts packed 64-bit keys, formats
 * fixed chunks of events on a thread pool and streams them in order.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "scalo/units/units.hpp"

namespace scalo::sim {

/** The trace event taxonomy of the simulation runtime. */
enum class TraceEventKind : std::uint8_t
{
    StageStart,       ///< a window enters a PE pipeline stage
    StageFinish,      ///< a window leaves a PE pipeline stage
    PacketTx,         ///< a packet is put on the air
    PacketRx,         ///< a packet is accepted by receivers
    PacketCorrupt,    ///< a packet arrived with bit errors
    PacketRetransmit, ///< a dropped packet is re-sent in a later slot
    NvmWrite,         ///< bytes persisted through the SC
    WindowDrop,       ///< a window abandoned (backlog or encoding miss)
    WindowDone,       ///< a window completed its flow end-to-end
    ExchangeStart,    ///< a TDMA exchange round begins
    ExchangeFinish,   ///< a TDMA exchange round completes
    FaultInjected,    ///< a FaultPlan entry fired (crash, dropout, ...)
    NodeDown,         ///< heartbeat detector declared a node dead
    NodeRecovered,    ///< a declared-dead node transmitted again
    ExchangeTimedOut, ///< a round ran without all expected senders
    Resched,          ///< the scheduler remapped work off dead nodes
    RelayForward,     ///< a relay queued its cluster's aggregate
    BackboneStart,    ///< an inter-cluster backbone round begins
    BackboneFinish,   ///< an inter-cluster backbone round completes
    RelayFailover,    ///< relay duty migrated to another member
    PartitionStart,   ///< a cluster went silent on the backbone
    PartitionHealed,  ///< a silent cluster reached the backbone again
    BackboneRestitch, ///< the backbone schedule was re-stitched
};

/** Number of event kinds (array-indexable). */
inline constexpr std::size_t kTraceEventKinds = 23;

/** Short stable name of an event kind ("stage-start", ...). */
std::string_view traceEventName(TraceEventKind kind);

/** One recorded event: a fixed-size POD. */
struct TraceEvent
{
    /** Timestamp on the simulator's integer-microsecond grid. */
    std::uint64_t timeUs = 0;
    /** Correlation id (window or packet sequence number). */
    std::uint64_t id = 0;
    /** Kind-specific magnitude (bytes for NvmWrite/Packet*). */
    double value = 0.0;
    /** Emitting node; Trace::kNetworkNode for the shared medium. */
    std::uint32_t node = 0;
    /** Lane within the node (stage/flow lane, export "tid"). */
    std::uint32_t lane = 0;
    /** Human label (PE stage, flow, or packet-type name), as an
     *  index into the recording Trace's name table. */
    std::uint32_t nameId = 0;
    TraceEventKind kind = TraceEventKind::StageStart;
};

static_assert(sizeof(TraceEvent) <= 40,
              "TraceEvent is a compact POD; names live in Trace");

/** Longest spelling formatTraceReal()/formatTraceUint() write. */
inline constexpr std::size_t kTraceNumberChars = 32;

/**
 * The Chrome export's spelling of a real: printf's "%.6g" in the C
 * locale, by std::to_chars. Writes at most kTraceNumberChars chars at
 * @p out. @return one past the last char written
 */
char *formatTraceReal(char *out, double value);

/** The export's spelling of an integer (std::to_string's digits). */
char *formatTraceUint(char *out, std::uint64_t value);

/** Per-node (or total) event counts, indexed by kind. */
struct TraceCounters
{
    std::array<std::uint64_t, kTraceEventKinds> count{};

    std::uint64_t
    operator[](TraceEventKind kind) const
    {
        return count[static_cast<std::size_t>(kind)];
    }

    std::uint64_t total() const;

    /** One-line "stage-start=12 packet-tx=3 ..." (non-zero only). */
    std::string summary() const;

    TraceCounters &
    operator+=(const TraceCounters &other)
    {
        for (std::size_t k = 0; k < kTraceEventKinds; ++k)
            count[k] += other.count[k];
        return *this;
    }
};

/**
 * The recorder. Append-only; events may be recorded out of timestamp
 * order (an actor schedules a stage's start and finish the moment the
 * window is admitted), so exports order events by (timestamp, record
 * index), which is a stable sort by timestamp.
 */
class Trace
{
  public:
    /** Pseudo-node id of the shared wireless medium. */
    static constexpr std::uint32_t kNetworkNode = 0xffff'fffe;

    /** Pseudo-node id of the inter-cluster backbone medium. */
    static constexpr std::uint32_t kBackboneNode = 0xffff'fffd;

    /** Base pseudo-node id of non-zero cluster media. */
    static constexpr std::uint32_t kMediumBase = 0xffff'0000;

    /**
     * Pseudo-node id of cluster @p cluster's medium. Cluster 0 maps
     * to kNetworkNode, so a single-cluster (flat) fabric traces
     * exactly as before the hierarchy existed.
     */
    static constexpr std::uint32_t
    mediumNode(std::size_t cluster)
    {
        return cluster == 0
                   ? kNetworkNode
                   : kMediumBase + static_cast<std::uint32_t>(cluster);
    }

    /**
     * Record one event at @p time (rounded to the µs grid). @p name
     * is copied into the name table on its first use only.
     */
    void record(units::Micros time, TraceEventKind kind,
                std::uint32_t node, std::uint32_t lane,
                std::string_view name, std::uint64_t id = 0,
                double value = 0.0);

    /**
     * Take @p other's events (their name ids remapped into this
     * trace's table) and fold in its counters. Merging the
     * per-cluster buffers in a fixed cluster order (after the export's
     * stable sort by timestamp) makes the combined trace byte-equal
     * between the serial and parallel engines.
     */
    void append(Trace &&other);

    /**
     * Tally counters but keep no event log. Large fabrics run with
     * recording off; counters still feed the result summary.
     */
    void setCountersOnly(bool counters_only)
    {
        countersOnly = counters_only;
    }

    std::size_t size() const { return eventCount; }
    bool empty() const { return eventCount == 0; }
    void clear();

    /** Event counts of one node. */
    TraceCounters counters(std::uint32_t node) const;

    /** Event counts across all nodes (including the medium). */
    TraceCounters totals() const;

    /**
     * Export in the Chrome trace-event JSON format (open in Perfetto
     * or chrome://tracing): stage and exchange events become "B"/"E"
     * duration pairs, everything else thread-scoped instants; nodes
     * map to processes and lanes to threads. Events are stably sorted
     * by timestamp, so the output is deterministic for a fixed seed.
     * @p threads is the export's width as in exportChrome().
     */
    std::string toChromeJson(std::size_t threads = 0) const;

    /**
     * Stream the toChromeJson() bytes to @p path without building
     * the document in memory. @return every write and the close
     * succeeded
     */
    bool writeChromeJson(const std::string &path,
                         std::size_t threads = 0) const;

    /** Receives the export in chunks; returning false fails the
     *  export, and no later chunk is sent. */
    using ChunkSink = std::function<bool(std::string_view)>;

    /** Sorted events the export formats per chunk (the last chunk
     *  may hold fewer). */
    static constexpr std::size_t kExportChunkEvents = 4096;

    /** Most chunks one export formats at a time, one buffer each. */
    static constexpr std::size_t kExportBuffers = 8;

    /**
     * The one exporter behind toChromeJson and writeChromeJson.
     * Chunks of sorted events are formatted on @p threads runners (0:
     * one per CPU; capped at the chunk count) in rounds of one chunk
     * per runner (at most kExportBuffers), and after each round the
     * calling thread hands them to @p sink in order; the bytes do not
     * depend on the width.
     *
     * The sort key packs the timestamp above the record index into
     * 64 bits. @return false when the sink refused a chunk, or, with
     * nothing sent, when the latest timestamp and the largest record
     * index do not fit together (2^44 µs or more at 2^20 events)
     */
    bool exportChrome(const ChunkSink &sink,
                      std::size_t threads = 0) const;

  private:
    /** Id of @p name in the name table, adding it on first use. */
    std::uint32_t intern(std::string_view name);

    /** Tally slot of @p node, grown on demand. */
    TraceCounters &slot(std::uint32_t node);

    /** Heterogeneous hash, so lookups take a string_view. */
    struct NameHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view name) const
        {
            return std::hash<std::string_view>{}(name);
        }
    };

    /**
     * Events per log block. A block is reserved once and never grows,
     * so recording copies no event and append() moves whole blocks.
     */
    static constexpr std::size_t kBlockEvents = 1024;

    /**
     * The event log in record order. A trace fills its own blocks
     * one after another; append() takes the other trace's blocks as
     * they are, so a partial block may sit mid-log.
     */
    std::vector<std::vector<TraceEvent>> blocks;
    std::size_t eventCount = 0;
    /** Interned labels; TraceEvent::nameId indexes this. */
    std::vector<std::string> names;
    std::unordered_map<std::string, std::uint32_t, NameHash,
                       std::equal_to<>>
        nameIds;
    /**
     * Labels recently interned, by address: callers pass the same
     * long-lived strings over and over, so a hit skips the hash
     * lookup. A hit still compares the bytes with the table's.
     */
    struct RecentName
    {
        std::uintptr_t address = 0;
        std::uint32_t id = 0;
    };
    std::array<RecentName, 16> recentNames{};
    /**
     * Incremental per-node tallies (kept even when countersOnly):
     * real nodes by id, cluster media by mediumNode() offset, and the
     * backbone, the flat network and id 0xffffffff in fixed slots.
     */
    std::vector<TraceCounters> nodeTally;
    std::vector<TraceCounters> mediumTally;
    std::array<TraceCounters, 3> topTally{};
    bool countersOnly = false;
};

} // namespace scalo::sim
