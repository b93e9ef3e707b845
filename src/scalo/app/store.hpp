/**
 * @file
 * The per-node signal/hash store: the application-visible face of the
 * NVM partitions (Section 3.3). Windows stream in per electrode with
 * their hash and detection flag; retrieval runs over the
 * electrode-major reorganised layout, whose read/write costs come
 * from the storage controller model. Oldest data is overwritten when
 * a partition fills, as on the device.
 *
 * Alongside the raw ring, the store keeps an LSH bucket index over
 * the Hashes partition: each signature band's low bits select a
 * bucket holding the slots of every retained window with that band
 * prefix. Template queries probe the union of the probe's buckets
 * instead of scanning the whole range, and the read-cost model then
 * charges only the windows actually touched. The index follows
 * ring-buffer overwrites: a window's slots are unlinked the moment
 * the ring drops it.
 *
 * Ingest is append-only, so as long as no retained window is older
 * than the one before it the ring is sorted by timestamp, ties in
 * ingest order. The store counts the retained pairs that break this;
 * while there are none, a time range is a contiguous slice found by
 * binary search and queries cost in proportion to their answer.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "scalo/hw/nvm.hpp"
#include "scalo/lsh/signature.hpp"
#include "scalo/util/types.hpp"

namespace scalo::app {

/** One stored analysis window with its metadata. */
struct StoredWindow
{
    std::uint64_t timestampUs = 0;
    ElectrodeId electrode = 0;
    std::vector<double> samples;
    lsh::Signature hash;
    /** Flagged by the local seizure detector at capture time. */
    bool seizureFlagged = false;
};

/** Ring-buffer signal store over the Signals + Hashes partitions. */
class SignalStore
{
  public:
    /**
     * @param capacity_windows ring capacity (oldest overwritten)
     * @param reorganise_layout electrode-major chunk layout on/off
     */
    explicit SignalStore(std::size_t capacity_windows = 8'192,
                         bool reorganise_layout = true);

    /** Append one window (write-buffered through the SC). */
    void append(StoredWindow window);

    /**
     * Windows captured in [t0, t1] (us) in stable timestamp order:
     * sorted by timestamp, ties broken by ingest order.
     *
     * Cost: O(log n + answer) while the store is timeOrdered() — two
     * binary searches bound the contiguous slice, which is copied
     * out as is. Once an out-of-order window is retained the ring no
     * longer sorts by time, and until that window's older neighbour
     * is evicted the call falls back to a scan of every retained
     * window plus a stable sort of the hits.
     */
    std::vector<const StoredWindow *>
    range(std::uint64_t t0_us, std::uint64_t t1_us) const;

    /**
     * Bucket-index probe: every retained window in [t0, t1] whose
     * signature shares at least one band prefix with @p probe — a
     * superset of the windows an exact any-band hash-match scan
     * would return (a strict superset only when bands are wider
     * than the bucket prefix). Same stable timestamp order as
     * range(). Windows ingested without a signature are never
     * indexed and never returned here.
     *
     * Cost: O(bands * log n + answer) while the store is
     * timeOrdered() — [t0, t1] becomes a slot interval by the same
     * two searches as range(), each probed bucket is cut to that
     * interval by binary search, and the sorted slices are merged;
     * no timestamp is read to filter and nothing is sorted. With an
     * out-of-order window retained, every slot of the probed buckets
     * is read, filtered by timestamp and sorted instead.
     */
    std::vector<const StoredWindow *>
    candidates(const lsh::Signature &probe, std::uint64_t t0_us,
               std::uint64_t t1_us) const;

    /** Stored windows currently retained. */
    std::size_t size() const { return windows.size(); }

    /**
     * Retained window @p index in ingest order (0 = oldest): the
     * raw ring, for full scans that must not go through range() or
     * candidates().
     */
    const StoredWindow &
    at(std::size_t index) const
    {
        return windows.at(index);
    }

    /**
     * Whether the retained windows are in timestamp order, i.e. no
     * retained window is older than the one ingested before it. The
     * fast paths of range() and candidates() run only while this
     * holds.
     */
    bool timeOrdered() const { return inversions == 0; }

    /** Total bytes retained (samples at 16 bit + hash + metadata). */
    std::size_t bytesStored() const;

    /** Windows dropped to the ring so far. */
    std::uint64_t overwritten() const { return dropped; }

    /** Retained windows currently linked into the bucket index. */
    std::size_t indexedWindows() const { return indexed; }

    /** Bits of each band used as the bucket key. */
    static constexpr unsigned kBucketBits = 8;

    /**
     * Modeled time to retrieve @p window_count windows through
     * the SC (0.035 ms per contiguous chunk of up to 16 windows when
     * reorganised; 10x slower raw).
     */
    units::Millis readCost(std::size_t window_count) const;

    /** Modeled time spent persisting everything appended. */
    units::Millis totalWriteCost() const { return writeCost; }

    const hw::StorageController &controller() const { return sc; }

  private:
    /** Bucket key for band @p band of @p signature. */
    static std::uint32_t bucketKey(const lsh::Signature &signature,
                                   unsigned band);

    void indexWindow(const StoredWindow &window, std::uint64_t slot);
    void unindexWindow(const StoredWindow &window,
                       std::uint64_t slot);

    /**
     * Retained positions [lo, hi) holding the windows of [t0, t1].
     * @pre timeOrdered()
     */
    std::pair<std::size_t, std::size_t>
    timeSlice(std::uint64_t t0_us, std::uint64_t t1_us) const;

    std::size_t capacity;
    std::deque<StoredWindow> windows;
    hw::StorageController sc;
    std::uint64_t dropped = 0;
    units::Millis writeCost{0.0};

    /**
     * band/prefix key -> ascending slots of retained windows whose
     * signature lands in that bucket. Slots are monotonically
     * increasing ingest sequence numbers; windows[slot - baseSlot]
     * is the owning window.
     */
    std::unordered_map<std::uint32_t, std::deque<std::uint64_t>>
        buckets;
    std::uint64_t baseSlot = 0;
    std::size_t indexed = 0;

    /**
     * Retained adjacent pairs that break timestamp order: slots i
     * with ts[i] < ts[i - 1], both retained. Zero means the ring is
     * sorted by timestamp (ties in ingest order).
     */
    std::size_t inversions = 0;
};

} // namespace scalo::app
