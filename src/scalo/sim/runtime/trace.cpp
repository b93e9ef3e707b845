#include "scalo/sim/runtime/trace.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "scalo/util/contracts.hpp"

namespace scalo::sim {

std::string_view
traceEventName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::StageStart: return "stage-start";
      case TraceEventKind::StageFinish: return "stage-finish";
      case TraceEventKind::PacketTx: return "packet-tx";
      case TraceEventKind::PacketRx: return "packet-rx";
      case TraceEventKind::PacketCorrupt: return "packet-corrupt";
      case TraceEventKind::PacketRetransmit:
        return "packet-retransmit";
      case TraceEventKind::NvmWrite: return "nvm-write";
      case TraceEventKind::WindowDrop: return "window-drop";
      case TraceEventKind::WindowDone: return "window-done";
      case TraceEventKind::ExchangeStart: return "exchange-start";
      case TraceEventKind::ExchangeFinish: return "exchange-finish";
      case TraceEventKind::FaultInjected: return "fault-injected";
      case TraceEventKind::NodeDown: return "node-down";
      case TraceEventKind::NodeRecovered: return "node-recovered";
      case TraceEventKind::ExchangeTimedOut:
        return "exchange-timed-out";
      case TraceEventKind::Resched: return "resched";
      case TraceEventKind::RelayForward: return "relay-forward";
      case TraceEventKind::BackboneStart: return "backbone-start";
      case TraceEventKind::BackboneFinish:
        return "backbone-finish";
      case TraceEventKind::RelayFailover: return "relay-failover";
      case TraceEventKind::PartitionStart: return "partition-start";
      case TraceEventKind::PartitionHealed:
        return "partition-healed";
      case TraceEventKind::BackboneRestitch:
        return "backbone-restitch";
    }
    return "unknown";
}

std::uint64_t
TraceCounters::total() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t c : count)
        sum += c;
    return sum;
}

std::string
TraceCounters::summary() const
{
    std::string out;
    for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
        if (count[k] == 0)
            continue;
        if (!out.empty())
            out += ' ';
        out += traceEventName(static_cast<TraceEventKind>(k));
        out += '=';
        out += std::to_string(count[k]);
    }
    return out.empty() ? "(no events)" : out;
}

char *
formatTraceReal(char *out, double value)
{
    return std::to_chars(out, out + kTraceNumberChars, value,
                         std::chars_format::general, 6)
        .ptr;
}

char *
formatTraceUint(char *out, std::uint64_t value)
{
    return std::to_chars(out, out + kTraceNumberChars, value).ptr;
}

TraceCounters &
Trace::slot(std::uint32_t node)
{
    if (node >= kBackboneNode)
        return topTally[node - kBackboneNode];
    std::vector<TraceCounters> &region =
        node >= kMediumBase ? mediumTally : nodeTally;
    const std::size_t index =
        node >= kMediumBase ? node - kMediumBase : node;
    if (index >= region.size())
        region.resize(index + 1);
    return region[index];
}

std::uint32_t
Trace::intern(std::string_view name)
{
    const auto address = reinterpret_cast<std::uintptr_t>(name.data());
    RecentName &recent = recentNames[(address >> 3) % recentNames.size()];
    if (recent.address == address && recent.id < names.size() &&
        names[recent.id] == name)
        return recent.id;
    std::uint32_t id = 0;
    if (const auto it = nameIds.find(name); it != nameIds.end()) {
        id = it->second;
    } else {
        id = static_cast<std::uint32_t>(names.size());
        names.emplace_back(name);
        nameIds.emplace(names.back(), id);
    }
    recent = {address, id};
    return id;
}

void
Trace::record(units::Micros time, TraceEventKind kind,
              std::uint32_t node, std::uint32_t lane,
              std::string_view name, std::uint64_t id, double value)
{
    SCALO_EXPECTS(time.count() >= 0.0);
    ++slot(node).count[static_cast<std::size_t>(kind)];
    if (countersOnly)
        return;
    TraceEvent event;
    event.timeUs =
        static_cast<std::uint64_t>(std::llround(time.count()));
    event.id = id;
    event.value = value;
    event.node = node;
    event.lane = lane;
    event.nameId = intern(name);
    event.kind = kind;
    if (blocks.empty() || blocks.back().size() == kBlockEvents) {
        blocks.emplace_back();
        blocks.back().reserve(kBlockEvents);
    }
    blocks.back().push_back(event);
    ++eventCount;
}

void
Trace::append(Trace &&other)
{
    std::vector<std::uint32_t> remap(other.names.size());
    bool identity = true;
    for (std::size_t i = 0; i < other.names.size(); ++i) {
        remap[i] = intern(other.names[i]);
        identity = identity && remap[i] == i;
    }
    for (std::vector<TraceEvent> &block : other.blocks) {
        if (!identity)
            for (TraceEvent &event : block)
                event.nameId = remap[event.nameId];
        blocks.push_back(std::move(block));
    }
    eventCount += other.eventCount;
    const auto fold = [](std::vector<TraceCounters> &into,
                         const std::vector<TraceCounters> &from) {
        if (into.size() < from.size())
            into.resize(from.size());
        for (std::size_t i = 0; i < from.size(); ++i)
            into[i] += from[i];
    };
    fold(nodeTally, other.nodeTally);
    fold(mediumTally, other.mediumTally);
    for (std::size_t i = 0; i < topTally.size(); ++i)
        topTally[i] += other.topTally[i];
    other.clear();
}

void
Trace::clear()
{
    blocks.clear();
    eventCount = 0;
    names.clear();
    nameIds.clear();
    recentNames = {};
    nodeTally.clear();
    mediumTally.clear();
    topTally = {};
}

TraceCounters
Trace::counters(std::uint32_t node) const
{
    if (node >= kBackboneNode)
        return topTally[node - kBackboneNode];
    const std::vector<TraceCounters> &region =
        node >= kMediumBase ? mediumTally : nodeTally;
    const std::size_t index =
        node >= kMediumBase ? node - kMediumBase : node;
    return index < region.size() ? region[index] : TraceCounters{};
}

TraceCounters
Trace::totals() const
{
    TraceCounters counters;
    for (const TraceCounters &per_node : nodeTally)
        counters += per_node;
    for (const TraceCounters &per_node : mediumTally)
        counters += per_node;
    for (const TraceCounters &per_node : topTally)
        counters += per_node;
    return counters;
}

namespace {

/** Minimal JSON string escaping (labels are plain ASCII). */
std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Chrome "ph" phase of one event kind. */
char
phaseOf(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::StageStart:
      case TraceEventKind::ExchangeStart:
      case TraceEventKind::BackboneStart:
        return 'B';
      case TraceEventKind::StageFinish:
      case TraceEventKind::ExchangeFinish:
      case TraceEventKind::BackboneFinish:
        return 'E';
      default:
        return 'i';
    }
}

/**
 * Fixed-buffer writer in front of a chunk sink. Callers reserve room
 * for a bounded run of numbers and literals, write it without further
 * checks, and commit; the buffer goes to the sink when full.
 */
class ChunkWriter
{
  public:
    explicit ChunkWriter(
        const std::function<bool(std::string_view)> &to)
        : sink(to)
    {
    }

    /** Longest bounded run one reserve() may be asked for. */
    static constexpr std::size_t kMaxRun = 256;

    /** @return a cursor with at least kMaxRun writable chars */
    char *
    reserve()
    {
        if (buffer.size() - used < kMaxRun)
            flush();
        return buffer.data() + used;
    }

    void
    commit(const char *cursor)
    {
        used = static_cast<std::size_t>(cursor - buffer.data());
    }

    void
    put(std::string_view text)
    {
        if (text.size() > buffer.size() - used) {
            flush();
            if (text.size() > buffer.size()) {
                ok = ok && sink(text);
                return;
            }
        }
        std::memcpy(buffer.data() + used, text.data(), text.size());
        used += text.size();
    }

    /** Whether the sink refused a chunk (later output is dropped). */
    bool failed() const { return !ok; }

    /** Hand over what is buffered. @return every chunk was taken */
    bool
    finish()
    {
        flush();
        return ok;
    }

  private:
    void
    flush()
    {
        if (used > 0)
            ok = ok && sink({buffer.data(), used});
        used = 0;
    }

    const std::function<bool(std::string_view)> &sink;
    std::array<char, std::size_t{1} << 16> buffer;
    std::size_t used = 0;
    bool ok = true;
};

/** Closes a FILE whose close result nobody reads (error paths). */
struct FileCloser
{
    void operator()(std::FILE *file) const { std::fclose(file); }
};

/** Copy a string literal's chars (no terminator) to @p out. */
template <std::size_t N>
char *
literal(char *out, const char (&text)[N])
{
    std::memcpy(out, text, N - 1);
    return out + (N - 1);
}

} // namespace

bool
Trace::exportChrome(const ChunkSink &sink) const
{
    // The export order is (timestamp, record index): a stable sort by
    // timestamp. The per-cluster buffers are not time-ordered (a
    // stage's start and finish are recorded when the window is
    // admitted), so compact keys are sorted rather than merged. The
    // record index of an event is its block's number times
    // kBlockEvents plus its offset, which grows in record order.
    struct Key
    {
        std::uint64_t timeUs;
        std::size_t index;
    };
    std::vector<Key> keys;
    keys.reserve(eventCount);
    std::uint64_t latest = 0;
    // Every distinct emitting node, for the process-name metadata
    // Perfetto uses to label nodes readably: real nodes by id, the
    // few pseudo-nodes in a list.
    std::vector<bool> seen;
    std::vector<std::uint32_t> media;
    for (std::size_t b = 0; b < blocks.size(); ++b)
        for (std::size_t i = 0; i < blocks[b].size(); ++i) {
            const TraceEvent &event = blocks[b][i];
            keys.push_back({event.timeUs, b * kBlockEvents + i});
            latest = std::max(latest, event.timeUs);
            if (event.node < kMediumBase) {
                if (event.node >= seen.size())
                    seen.resize(event.node + std::size_t{1});
                seen[event.node] = true;
            } else if (std::find(media.begin(), media.end(),
                                 event.node) == media.end()) {
                media.push_back(event.node);
            }
        }
    std::vector<std::uint32_t> pids;
    for (std::uint32_t pid = 0; pid < seen.size(); ++pid)
        if (seen[pid])
            pids.push_back(pid);
    std::sort(media.begin(), media.end());
    pids.insert(pids.end(), media.begin(), media.end());
    // LSD radix sort on the timestamp alone, starting from record
    // order: every pass is stable, so ties keep record order.
    constexpr int kDigitBits = 11;
    constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
    const auto bits = static_cast<int>(std::bit_width(latest));
    std::vector<Key> sorted(keys.size());
    for (int shift = 0; shift < bits; shift += kDigitBits) {
        std::array<std::size_t, kDigitMask + 1> start{};
        for (const Key &key : keys)
            ++start[(key.timeUs >> shift) & kDigitMask];
        std::size_t offset = 0;
        for (std::size_t &slot : start)
            offset += std::exchange(slot, offset);
        for (const Key &key : keys)
            sorted[start[(key.timeUs >> shift) & kDigitMask]++] = key;
        keys.swap(sorted);
    }

    // Each (name, kind) pair's invariant prefix, escaped once:
    // {"name":"...","cat":"...","ph":"X","ts":
    std::vector<std::string> prefixes(names.size() * kTraceEventKinds);
    const auto prefix = [&](const TraceEvent &event)
        -> const std::string & {
        std::string &text =
            prefixes[event.nameId * kTraceEventKinds +
                     static_cast<std::size_t>(event.kind)];
        if (text.empty()) {
            text = "{\"name\":\"" + jsonEscape(names[event.nameId]) +
                   "\",\"cat\":\"" +
                   std::string(traceEventName(event.kind)) +
                   "\",\"ph\":\"" + phaseOf(event.kind) + "\",\"ts\":";
        }
        return text;
    };

    ChunkWriter out(sink);
    out.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    const auto separate = [&] {
        out.put(first ? "\n" : ",\n");
        first = false;
    };

    for (const std::uint32_t pid : pids) {
        std::string label;
        if (pid == kNetworkNode)
            label = "network";
        else if (pid == kBackboneNode)
            label = "backbone";
        else if (pid >= kMediumBase)
            label = "medium " + std::to_string(pid - kMediumBase);
        else
            label = "node " + std::to_string(pid);
        separate();
        out.put("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                std::to_string(pid) +
                ",\"tid\":0,\"args\":{\"name\":\"" + label + "\"}}");
    }

    for (const Key &key : keys) {
        if (out.failed())
            break;
        const TraceEvent &event =
            blocks[key.index / kBlockEvents][key.index % kBlockEvents];
        separate();
        out.put(prefix(event));
        char *cursor = out.reserve();
        cursor = formatTraceUint(cursor, event.timeUs);
        cursor = literal(cursor, ",\"pid\":");
        cursor = formatTraceUint(cursor, event.node);
        cursor = literal(cursor, ",\"tid\":");
        cursor = formatTraceUint(cursor, event.lane);
        if (phaseOf(event.kind) == 'i')
            cursor = literal(cursor, ",\"s\":\"t\"");
        cursor = literal(cursor, ",\"args\":{\"id\":");
        cursor = formatTraceUint(cursor, event.id);
        cursor = literal(cursor, ",\"value\":");
        cursor = formatTraceReal(cursor, event.value);
        cursor = literal(cursor, "}}");
        out.commit(cursor);
    }
    out.put("\n]}\n");
    return out.finish();
}

std::string
Trace::toChromeJson() const
{
    std::string json;
    exportChrome([&json](std::string_view chunk) {
        json.append(chunk);
        return true;
    });
    return json;
}

bool
Trace::writeChromeJson(const std::string &path) const
{
    std::unique_ptr<std::FILE, FileCloser> file(
        std::fopen(path.c_str(), "wb"));
    if (!file)
        return false;
    const bool written =
        exportChrome([&file](std::string_view chunk) {
            return std::fwrite(chunk.data(), 1, chunk.size(),
                               file.get()) == chunk.size();
        });
    return std::fclose(file.release()) == 0 && written;
}

} // namespace scalo::sim
