#include "scalo/app/store.hpp"

#include <algorithm>
#include <cmath>

#include "scalo/util/logging.hpp"

namespace scalo::app {

SignalStore::SignalStore(std::size_t capacity_windows,
                         bool reorganise_layout)
    : capacity(capacity_windows), sc(reorganise_layout)
{
    SCALO_ASSERT(capacity >= 1, "capacity must be >= 1");
}

std::uint32_t
SignalStore::bucketKey(const lsh::Signature &signature, unsigned band)
{
    const std::uint32_t prefix = static_cast<std::uint32_t>(
        signature.band(band) & ((1ULL << kBucketBits) - 1));
    return (band << kBucketBits) | prefix;
}

void
SignalStore::indexWindow(const StoredWindow &window,
                         std::uint64_t slot)
{
    if (window.hash.bandCount() == 0)
        return;
    for (unsigned b = 0; b < window.hash.bandCount(); ++b)
        buckets[bucketKey(window.hash, b)].push_back(slot);
    ++indexed;
}

void
SignalStore::unindexWindow(const StoredWindow &window,
                           std::uint64_t slot)
{
    if (window.hash.bandCount() == 0)
        return;
    for (unsigned b = 0; b < window.hash.bandCount(); ++b) {
        const auto it = buckets.find(bucketKey(window.hash, b));
        SCALO_ASSERT(it != buckets.end() &&
                         !it->second.empty() &&
                         it->second.front() == slot,
                     "bucket index out of step with the ring");
        it->second.pop_front();
        if (it->second.empty())
            buckets.erase(it);
    }
    --indexed;
}

void
SignalStore::append(StoredWindow window)
{
    sc.append(hw::Partition::Signals, window.samples.size() * 2);
    sc.append(hw::Partition::Hashes, window.hash.sizeBytes());
    // The SC reorganises one electrode chunk per ~16 windows; amortise
    // its write cost accordingly.
    writeCost += sc.chunkWrite() / 16.0;

    if (!windows.empty() &&
        window.timestampUs < windows.back().timestampUs)
        ++inversions;
    windows.push_back(std::move(window));
    indexWindow(windows.back(), baseSlot + windows.size() - 1);
    while (windows.size() > capacity) {
        // The oldest window leaves with the pair it forms with its
        // successor.
        if (windows[1].timestampUs < windows[0].timestampUs)
            --inversions;
        unindexWindow(windows.front(), baseSlot);
        windows.pop_front();
        ++baseSlot;
        ++dropped;
    }
}

namespace {

/** Stable timestamp order: by timestamp, ingest order on ties. */
void
sortByTimestamp(std::vector<const StoredWindow *> &out)
{
    std::stable_sort(out.begin(), out.end(),
                     [](const StoredWindow *a, const StoredWindow *b) {
                         return a->timestampUs < b->timestampUs;
                     });
}

} // namespace

std::pair<std::size_t, std::size_t>
SignalStore::timeSlice(std::uint64_t t0_us, std::uint64_t t1_us) const
{
    // With t0 > t1 every window from `first` on is past t1, so the
    // slice comes out empty.
    const auto first = std::lower_bound(
        windows.begin(), windows.end(), t0_us,
        [](const StoredWindow &window, std::uint64_t t) {
            return window.timestampUs < t;
        });
    const auto last = std::upper_bound(
        first, windows.end(), t1_us,
        [](std::uint64_t t, const StoredWindow &window) {
            return t < window.timestampUs;
        });
    return {static_cast<std::size_t>(first - windows.begin()),
            static_cast<std::size_t>(last - windows.begin())};
}

std::vector<const StoredWindow *>
SignalStore::range(std::uint64_t t0_us, std::uint64_t t1_us) const
{
    std::vector<const StoredWindow *> out;
    if (timeOrdered()) {
        // Ingest order is the stable timestamp order: the answer is
        // one contiguous slice of the ring.
        const auto [lo, hi] = timeSlice(t0_us, t1_us);
        out.reserve(hi - lo);
        const auto end = windows.begin() + static_cast<std::ptrdiff_t>(hi);
        for (auto it = windows.begin() + static_cast<std::ptrdiff_t>(lo);
             it != end; ++it)
            out.push_back(&*it);
        return out;
    }
    for (const StoredWindow &window : windows)
        if (window.timestampUs >= t0_us &&
            window.timestampUs <= t1_us)
            out.push_back(&window);
    sortByTimestamp(out);
    return out;
}

std::vector<const StoredWindow *>
SignalStore::candidates(const lsh::Signature &probe,
                        std::uint64_t t0_us,
                        std::uint64_t t1_us) const
{
    if (timeOrdered()) {
        // Slots are ingest order, which is the stable timestamp
        // order here: cut each probed bucket to the slot interval of
        // [t0, t1] and merge the ascending slices, deduplicating
        // windows that share more than one band prefix with the
        // probe.
        const auto [lo, hi] = timeSlice(t0_us, t1_us);
        using SlotIt = std::deque<std::uint64_t>::const_iterator;
        std::vector<std::pair<SlotIt, SlotIt>> slices;
        std::size_t bound = 0;
        for (unsigned b = 0; b < probe.bandCount(); ++b) {
            const auto it = buckets.find(bucketKey(probe, b));
            if (it == buckets.end())
                continue;
            const SlotIt first = std::lower_bound(
                it->second.begin(), it->second.end(), baseSlot + lo);
            const SlotIt last = std::lower_bound(
                first, it->second.end(), baseSlot + hi);
            if (first == last)
                continue;
            slices.emplace_back(first, last);
            bound += static_cast<std::size_t>(last - first);
        }
        std::vector<const StoredWindow *> out;
        out.reserve(bound);
        while (!slices.empty()) {
            std::uint64_t next = *slices.front().first;
            for (const auto &[at, end] : slices)
                next = std::min(next, *at);
            out.push_back(&windows[next - baseSlot]);
            for (auto &[at, end] : slices)
                if (*at == next)
                    ++at;
            std::erase_if(slices, [](const auto &slice) {
                return slice.first == slice.second;
            });
        }
        return out;
    }

    // Union of the probe's buckets, deduplicated across bands (a
    // window can share more than one band prefix with the probe).
    std::vector<std::uint64_t> slots;
    for (unsigned b = 0; b < probe.bandCount(); ++b) {
        const auto it = buckets.find(bucketKey(probe, b));
        if (it == buckets.end())
            continue;
        slots.insert(slots.end(), it->second.begin(),
                     it->second.end());
    }
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()),
                slots.end());

    std::vector<const StoredWindow *> out;
    out.reserve(slots.size());
    for (const std::uint64_t slot : slots) {
        const StoredWindow &window = windows[slot - baseSlot];
        if (window.timestampUs >= t0_us &&
            window.timestampUs <= t1_us)
            out.push_back(&window);
    }
    sortByTimestamp(out);
    return out;
}

std::size_t
SignalStore::bytesStored() const
{
    std::size_t total = 0;
    for (const StoredWindow &window : windows)
        total += window.samples.size() * 2 + window.hash.sizeBytes() +
                 16;
    return total;
}

units::Millis
SignalStore::readCost(std::size_t window_count) const
{
    const double chunks =
        std::ceil(static_cast<double>(window_count) / 16.0);
    return chunks * sc.chunkRead();
}

} // namespace scalo::app
