#include "scalo/sim/runtime/trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "scalo/util/contracts.hpp"
#include "scalo/util/thread_pool.hpp"

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

/** Longest spelling of one event after its (name, kind) prefix: four
 *  integers, one real and the fixed literals between them. */
constexpr std::size_t kMaxEventTail = 256;

} // namespace

bool
Trace::exportChrome(const ChunkSink &sink, std::size_t threads) const
{
    // The export order is (timestamp, record index): a stable sort by
    // timestamp. The per-cluster buffers are not time-ordered (a
    // stage's start and finish are recorded when the window is
    // admitted), so keys are sorted rather than merged. The record
    // index of an event is its block's number times kBlockEvents plus
    // its offset, which grows in record order; a key packs the
    // timestamp above it into one 64-bit word.
    std::size_t last_index = 0;
    for (std::size_t b = blocks.size(); b-- > 0;)
        if (!blocks[b].empty()) {
            last_index = b * kBlockEvents + blocks[b].size() - 1;
            break;
        }
    const int index_bits = static_cast<int>(std::bit_width(last_index));
    if (index_bits >= 64)
        return false;
    const std::uint64_t index_mask = (std::uint64_t{1} << index_bits) - 1;

    std::vector<std::size_t> block_start(blocks.size() + 1, 0);
    for (std::size_t b = 0; b < blocks.size(); ++b)
        block_start[b + 1] = block_start[b] + blocks[b].size();
    const std::size_t events = block_start.back();
    const std::size_t chunks =
        (events + kExportChunkEvents - 1) / kExportChunkEvents;
    const std::size_t width = std::clamp<std::size_t>(
        threads ? threads : util::ThreadPool::defaultThreads(), 1,
        std::max<std::size_t>(chunks, 1));
    util::ThreadPool pool(width);
    // Runner r of a pass over n items takes the r-th of width slices.
    const auto slice = [width](std::size_t n, std::size_t r) {
        return std::pair{n * r / width, n * (r + 1) / width};
    };

    // Gather the keys, each runner over a run of whole blocks, along
    // with the latest timestamp, every distinct emitting node (for
    // the process-name metadata Perfetto uses to label nodes: real
    // nodes by id, the few pseudo-nodes in a list) and every (name,
    // kind) pair in use.
    struct Gathered
    {
        std::uint64_t latest = 0;
        std::vector<std::uint8_t> seen;
        std::vector<std::uint32_t> media;
        std::vector<std::uint8_t> used;
    };
    // Sized here from the tallies (every recorded node has one), so
    // that workers allocate nothing.
    std::vector<Gathered> gathered(width);
    for (Gathered &part : gathered) {
        part.seen.assign(nodeTally.size(), 0);
        part.media.reserve(mediumTally.size() + topTally.size());
        part.used.assign(names.size() * kTraceEventKinds, 0);
    }
    auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(events);
    pool.parallelFor(width, [&](std::size_t r) {
        Gathered &part = gathered[r];
        const auto [first_block, end_block] = slice(blocks.size(), r);
        for (std::size_t b = first_block; b < end_block; ++b)
            for (std::size_t i = 0; i < blocks[b].size(); ++i) {
                const TraceEvent &event = blocks[b][i];
                keys[block_start[b] + i] =
                    event.timeUs << index_bits | (b * kBlockEvents + i);
                part.latest = std::max(part.latest, event.timeUs);
                part.used[event.nameId * kTraceEventKinds +
                          static_cast<std::size_t>(event.kind)] = 1;
                if (event.node < kMediumBase) {
                    if (event.node >= part.seen.size())
                        part.seen.resize(event.node + std::size_t{1});
                    part.seen[event.node] = 1;
                } else if (std::find(part.media.begin(),
                                     part.media.end(), event.node) ==
                           part.media.end()) {
                    part.media.push_back(event.node);
                }
            }
    });
    std::uint64_t latest = 0;
    std::vector<std::uint8_t> seen;
    std::vector<std::uint32_t> media;
    std::vector<std::uint8_t> used(names.size() * kTraceEventKinds, 0);
    for (const Gathered &part : gathered) {
        latest = std::max(latest, part.latest);
        if (seen.size() < part.seen.size())
            seen.resize(part.seen.size());
        for (std::size_t n = 0; n < part.seen.size(); ++n)
            seen[n] |= part.seen[n];
        media.insert(media.end(), part.media.begin(), part.media.end());
        for (std::size_t k = 0; k < used.size(); ++k)
            used[k] |= part.used[k];
    }
    const int time_bits = static_cast<int>(std::bit_width(latest));
    if (time_bits + index_bits > 64)
        return false;
    std::vector<std::uint32_t> pids;
    for (std::uint32_t pid = 0; pid < seen.size(); ++pid)
        if (seen[pid])
            pids.push_back(pid);
    std::sort(media.begin(), media.end());
    media.erase(std::unique(media.begin(), media.end()), media.end());
    pids.insert(pids.end(), media.begin(), media.end());

    // LSD radix sort on the timestamp bits alone, starting from
    // record order. Each pass is stable: runner r counts and then
    // scatters the r-th slice, and a digit's slots go to the slices
    // in order, so ties keep record order at every width.
    constexpr int kDigitBits = 11;
    constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
    {
        auto sorted =
            std::make_unique_for_overwrite<std::uint64_t[]>(events);
        std::vector<std::array<std::size_t, kDigitMask + 1>> start(width);
        for (int shift = index_bits; shift < index_bits + time_bits;
             shift += kDigitBits) {
            pool.parallelFor(width, [&](std::size_t r) {
                start[r].fill(0);
                const auto [first, end] = slice(events, r);
                for (std::size_t k = first; k < end; ++k)
                    ++start[r][(keys[k] >> shift) & kDigitMask];
            });
            std::size_t offset = 0;
            for (std::size_t digit = 0; digit <= kDigitMask; ++digit)
                for (std::size_t r = 0; r < width; ++r)
                    offset += std::exchange(start[r][digit], offset);
            pool.parallelFor(width, [&](std::size_t r) {
                const auto [first, end] = slice(events, r);
                for (std::size_t k = first; k < end; ++k)
                    sorted[start[r][(keys[k] >> shift) & kDigitMask]++] =
                        keys[k];
            });
            keys.swap(sorted);
        }
    }

    // Each used (name, kind) pair's invariant prefix, escaped once:
    // {"name":"...","cat":"...","ph":"X","ts":
    std::vector<std::string> prefixes(used.size());
    std::size_t longest_prefix = 0;
    for (std::size_t k = 0; k < used.size(); ++k) {
        if (!used[k])
            continue;
        const auto kind =
            static_cast<TraceEventKind>(k % kTraceEventKinds);
        prefixes[k] = "{\"name\":\"" +
                      jsonEscape(names[k / kTraceEventKinds]) +
                      "\",\"cat\":\"" +
                      std::string(traceEventName(kind)) +
                      "\",\"ph\":\"" + phaseOf(kind) + "\",\"ts\":";
        longest_prefix = std::max(longest_prefix, prefixes[k].size());
    }

    std::string head = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
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
        head += pid == pids.front() ? "\n" : ",\n";
        head += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                std::to_string(pid) +
                ",\"tid\":0,\"args\":{\"name\":\"" + label + "\"}}";
    }
    if (!sink(head))
        return false;

    // Chunks are formatted in rounds: the runners format one chunk
    // each into its own buffer, then the calling thread hands the
    // round's buffers to the sink in order, stopping at the first
    // refused one. Every event follows a metadata line (an event's
    // node is a pid), so each one starts with ",\n".
    const std::size_t round = std::min(width, kExportBuffers);
    const std::size_t buffer_bytes =
        kExportChunkEvents * (2 + longest_prefix + kMaxEventTail);
    std::vector<std::unique_ptr<char[]>> buffers(round);
    for (std::unique_ptr<char[]> &buffer : buffers)
        buffer = std::make_unique_for_overwrite<char[]>(buffer_bytes);
    std::vector<std::size_t> sizes(round);
    for (std::size_t first = 0; first < chunks; first += round) {
        const std::size_t count = std::min(round, chunks - first);
        pool.parallelFor(count, [&](std::size_t slot) {
            const std::size_t begin = (first + slot) * kExportChunkEvents;
            const std::size_t end =
                std::min(events, begin + kExportChunkEvents);
            char *const start = buffers[slot].get();
            char *cursor = start;
            for (std::size_t k = begin; k < end; ++k) {
                const std::uint64_t index = keys[k] & index_mask;
                const TraceEvent &event =
                    blocks[index / kBlockEvents][index % kBlockEvents];
                const std::string &prefix =
                    prefixes[event.nameId * kTraceEventKinds +
                             static_cast<std::size_t>(event.kind)];
                cursor = literal(cursor, ",\n");
                std::memcpy(cursor, prefix.data(), prefix.size());
                cursor += prefix.size();
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
            }
            sizes[slot] = static_cast<std::size_t>(cursor - start);
        });
        for (std::size_t slot = 0; slot < count; ++slot)
            if (!sink({buffers[slot].get(), sizes[slot]}))
                return false;
    }
    return sink("\n]}\n");
}

std::string
Trace::toChromeJson(std::size_t threads) const
{
    std::string json;
    exportChrome(
        [&json](std::string_view chunk) {
            json.append(chunk);
            return true;
        },
        threads);
    return json;
}

bool
Trace::writeChromeJson(const std::string &path,
                       std::size_t threads) const
{
    std::unique_ptr<std::FILE, FileCloser> file(
        std::fopen(path.c_str(), "wb"));
    if (!file)
        return false;
    const bool written = exportChrome(
        [&file](std::string_view chunk) {
            return std::fwrite(chunk.data(), 1, chunk.size(),
                               file.get()) == chunk.size();
        },
        threads);
    return std::fclose(file.release()) == 0 && written;
}

} // namespace scalo::sim
