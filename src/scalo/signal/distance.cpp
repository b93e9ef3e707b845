#include "scalo/signal/distance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "scalo/util/logging.hpp"
#include "scalo/util/simd.hpp"

namespace scalo::signal {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr std::size_t kW = simd::kLanes;
using dpack = simd::dpack;

} // namespace

DtwScratch::Rows
DtwScratch::rows(std::size_t m)
{
    // Stride padded to the pack width AND to a cache line of doubles,
    // so every row starts 64-byte aligned and full-width loads within
    // a row stay inside the allocation.
    constexpr std::size_t line_doubles =
        util::AlignedBuffer<double>::kAlignment / sizeof(double);
    const std::size_t stride =
        simd::paddedSize(m + 1, std::max(kW, line_doubles));
    if (4 * stride > storage.capacity())
        ++reallocCount;
    double *base = storage.ensure(4 * stride);
    return Rows{base, base + stride, base + 2 * stride,
                base + 3 * stride, stride};
}

namespace {

/**
 * Shared banded-DTW core. Rows are reset only at the band edges
 * (entries inside the band are overwritten, entries further out are
 * never read), so each row costs O(band) instead of O(m). When
 * @p cutoff is finite, a row whose minimum exceeds it abandons the
 * computation, returning that row minimum (a lower bound of the true
 * distance that is already > cutoff).
 *
 * Each band row is split into a vectorized precompute,
 *
 *     cost[j]  = |a_i - b[j-1]|
 *     bound[j] = cost[j] + min(prev[j], prev[j-1])
 *
 * and a short serial resolve carrying the in-row dependency,
 *
 *     curr[j] = min(bound[j], cost[j] + curr[j-1])
 *
 * Rounding is monotone non-decreasing, so for finite inputs
 * fl(c + min(x, y)) == min(fl(c + x), fl(c + y)) and the split is
 * bit-identical to the fused cost + min(prev[j], curr[j-1],
 * prev[j-1]) recurrence (infinities ride along exactly; only NaN
 * payload propagation is unspecified).
 */
double
dtwBandedCore(const std::vector<double> &a, const std::vector<double> &b,
              std::size_t band, double cutoff, DtwScratch &scratch)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    if (n == 0 || m == 0)
        return (n == m) ? 0.0 : kInf;

    // The band must at least cover the length difference or no monotone
    // path exists.
    const std::size_t min_band = (n > m) ? (n - m) : (m - n);
    band = std::max(band, min_band + 1);

    // Rolling two-row DP over the banded cost matrix. The rows are
    // filled across their whole padded stride so full-width loads of
    // prev never read indeterminate memory.
    const DtwScratch::Rows rows = scratch.rows(m);
    double *prev = rows.prev;
    double *curr = rows.curr;
    double *const cost = rows.cost;
    double *const bound = rows.bound;
    std::fill_n(prev, rows.stride, kInf);
    std::fill_n(curr, rows.stride, kInf);
    prev[0] = 0.0;

    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t j_lo = (i > band) ? (i - band) : 1;
        const std::size_t j_hi = std::min(m, i + band);
        // Band-edge sentinels: the next row only ever reads one entry
        // beyond this row's band on either side.
        curr[j_lo - 1] = kInf;
        if (j_hi < m)
            curr[j_hi + 1] = kInf;

        const double ai = a[i - 1];
        double row_min = kInf;
        const std::size_t width = j_hi - j_lo + 1;
        if (width < 4 * kW) {
            // Narrow band: the classic fused row. The serial resolve
            // below is latency-bound on the curr[j-1] chain whatever
            // the band width, so the vectorized precompute only pays
            // once its store/reload traffic amortises over a wide
            // row; under ~4 packs it is pure overhead. Fusing is
            // bit-identical to the split (the same monotone-rounding
            // argument, read in reverse).
            for (std::size_t j = j_lo; j <= j_hi; ++j) {
                const double c = std::abs(ai - b[j - 1]);
                const double lo = std::min(
                    std::min(prev[j], prev[j - 1]), curr[j - 1]);
                const double v = c + lo;
                curr[j] = v;
                row_min = std::min(row_min, v);
            }
        } else {
            const dpack av = dpack::broadcast(ai);
            std::size_t j = j_lo;
            // Full packs stop where the b[j-1] load would run past
            // m; prev/cost/bound are padded, so only b limits the
            // width.
            for (; j + kW <= j_hi + 1; j += kW) {
                const dpack c = abs(av - dpack::loadu(&b[j - 1]));
                const dpack lo = min(dpack::loadu(&prev[j]),
                                     dpack::loadu(&prev[j - 1]));
                c.storeu(&cost[j]);
                (c + lo).storeu(&bound[j]);
            }
            for (; j <= j_hi; ++j) {
                const double c = std::abs(ai - b[j - 1]);
                cost[j] = c;
                bound[j] = c + std::min(prev[j], prev[j - 1]);
            }

            for (j = j_lo; j <= j_hi; ++j) {
                const double v =
                    std::min(bound[j], cost[j] + curr[j - 1]);
                curr[j] = v;
                row_min = std::min(row_min, v);
            }
        }
        if (row_min > cutoff)
            return row_min;
        std::swap(prev, curr);
    }
    return prev[m];
}

} // namespace

double
dtwDistance(const std::vector<double> &a, const std::vector<double> &b,
            std::size_t band, DtwScratch &scratch)
{
    return dtwBandedCore(a, b, band, kInf, scratch);
}

double
dtwDistance(const std::vector<double> &a, const std::vector<double> &b,
            std::size_t band)
{
    DtwScratch scratch;
    return dtwBandedCore(a, b, band, kInf, scratch);
}

double
dtwDistanceEarlyAbandon(const std::vector<double> &a,
                        const std::vector<double> &b, std::size_t band,
                        double cutoff, DtwScratch &scratch)
{
    return dtwBandedCore(a, b, band, cutoff, scratch);
}

double
euclideanDistanceSquared(const double *a, const double *b,
                         std::size_t n)
{
    // One W-lane accumulator over full packs, a scalar tail, then the
    // fixed left-to-right lane reduce: this exact sequence is the
    // arithmetic contract euclideanDistanceMany() reproduces
    // per-candidate, which is what makes batched results bitwise
    // equal to per-pair calls.
    dpack acc = dpack::zero();
    std::size_t i = 0;
    for (; i + kW <= n; i += kW) {
        const dpack d = dpack::loadu(a + i) - dpack::loadu(b + i);
        acc += d * d;
    }
    double tail = 0.0;
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        tail += d * d;
    }
    // acc.sum() is +0.0 for n < W, and tail is never -0.0 (it sums
    // squares), so the final add is exact.
    return acc.sum() + tail;
}

double
euclideanDistance(const std::vector<double> &a,
                  const std::vector<double> &b)
{
    SCALO_ASSERT(a.size() == b.size(), "size mismatch ", a.size(), " vs ",
                 b.size());
    return std::sqrt(euclideanDistanceSquared(a.data(), b.data(),
                                              a.size()));
}

void
euclideanDistanceMany(
    const std::vector<double> &query,
    const std::vector<const std::vector<double> *> &candidates,
    std::vector<double> &out)
{
    out.resize(candidates.size());
    const double *q = query.data();
    const std::size_t n = query.size();
    const std::size_t count = candidates.size();
    for (std::size_t i = 0; i < count; ++i)
        SCALO_ASSERT(candidates[i]->size() == n, "candidate ", i,
                     " has ", candidates[i]->size(),
                     " samples, query has ", n);

    // Eight candidates per pass: the query streams through the cache
    // once per block instead of once per candidate, and the eight
    // W-lane accumulators fill enough independent FMA chains to cover
    // the multiply-add latency (4-5 cycles at 2/cycle throughput
    // needs 8+ chains in flight). Every candidate runs the exact
    // accumulation sequence of euclideanDistanceSquared() (same pack
    // loop, same scalar tail, same lane reduce), so results are
    // bitwise equal to per-pair calls whatever the blocking.
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        const double *c0 = candidates[i]->data();
        const double *c1 = candidates[i + 1]->data();
        const double *c2 = candidates[i + 2]->data();
        const double *c3 = candidates[i + 3]->data();
        const double *c4 = candidates[i + 4]->data();
        const double *c5 = candidates[i + 5]->data();
        const double *c6 = candidates[i + 6]->data();
        const double *c7 = candidates[i + 7]->data();
        dpack s0 = dpack::zero(), s1 = dpack::zero();
        dpack s2 = dpack::zero(), s3 = dpack::zero();
        dpack s4 = dpack::zero(), s5 = dpack::zero();
        dpack s6 = dpack::zero(), s7 = dpack::zero();
        std::size_t j = 0;
        for (; j + kW <= n; j += kW) {
            const dpack qv = dpack::loadu(q + j);
            dpack d;
            d = qv - dpack::loadu(c0 + j); s0 += d * d;
            d = qv - dpack::loadu(c1 + j); s1 += d * d;
            d = qv - dpack::loadu(c2 + j); s2 += d * d;
            d = qv - dpack::loadu(c3 + j); s3 += d * d;
            d = qv - dpack::loadu(c4 + j); s4 += d * d;
            d = qv - dpack::loadu(c5 + j); s5 += d * d;
            d = qv - dpack::loadu(c6 + j); s6 += d * d;
            d = qv - dpack::loadu(c7 + j); s7 += d * d;
        }
        double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
        double t4 = 0.0, t5 = 0.0, t6 = 0.0, t7 = 0.0;
        for (; j < n; ++j) {
            const double qj = q[j];
            double d;
            d = qj - c0[j]; t0 += d * d;
            d = qj - c1[j]; t1 += d * d;
            d = qj - c2[j]; t2 += d * d;
            d = qj - c3[j]; t3 += d * d;
            d = qj - c4[j]; t4 += d * d;
            d = qj - c5[j]; t5 += d * d;
            d = qj - c6[j]; t6 += d * d;
            d = qj - c7[j]; t7 += d * d;
        }
        out[i] = s0.sum() + t0;
        out[i + 1] = s1.sum() + t1;
        out[i + 2] = s2.sum() + t2;
        out[i + 3] = s3.sum() + t3;
        out[i + 4] = s4.sum() + t4;
        out[i + 5] = s5.sum() + t5;
        out[i + 6] = s6.sum() + t6;
        out[i + 7] = s7.sum() + t7;
    }
    for (; i < count; ++i)
        out[i] = euclideanDistanceSquared(q, candidates[i]->data(), n);

    // Deferred sqrt: one tight pass instead of one call per distance.
    for (double &d : out)
        d = std::sqrt(d);
}

std::vector<double>
euclideanDistanceMany(
    const std::vector<double> &query,
    const std::vector<const std::vector<double> *> &candidates)
{
    std::vector<double> out;
    euclideanDistanceMany(query, candidates, out);
    return out;
}

double
pearson(const std::vector<double> &a, const std::vector<double> &b)
{
    SCALO_ASSERT(a.size() == b.size(), "size mismatch ", a.size(), " vs ",
                 b.size());
    const std::size_t n = a.size();
    if (n == 0)
        return 0.0;

    double ma = 0.0, mb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= static_cast<double>(n);
    mb /= static_cast<double>(n);

    double sab = 0.0, saa = 0.0, sbb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double da = a[i] - ma;
        const double db = b[i] - mb;
        sab += da * db;
        saa += da * da;
        sbb += db * db;
    }
    if (saa <= 0.0 || sbb <= 0.0)
        return 0.0;
    return sab / std::sqrt(saa * sbb);
}

double
crossCorrelation(const std::vector<double> &a,
                 const std::vector<double> &b, std::size_t max_lag)
{
    SCALO_ASSERT(a.size() == b.size(), "size mismatch ", a.size(), " vs ",
                 b.size());
    const std::size_t n = a.size();
    if (n == 0)
        return 0.0;
    max_lag = std::min(max_lag, n - 1);

    double best = -1.0;
    for (std::size_t lag = 0; lag <= max_lag; ++lag) {
        const std::size_t overlap = n - lag;
        if (overlap < 2)
            break;
        // b delayed by `lag` relative to a, and vice versa.
        std::vector<double> a_head(a.begin(),
                                   a.begin() +
                                       static_cast<long>(overlap));
        std::vector<double> b_tail(b.begin() + static_cast<long>(lag),
                                   b.end());
        best = std::max(best, pearson(a_head, b_tail));
        if (lag != 0) {
            std::vector<double> b_head(b.begin(),
                                       b.begin() +
                                           static_cast<long>(overlap));
            std::vector<double> a_tail(a.begin() + static_cast<long>(lag),
                                       a.end());
            best = std::max(best, pearson(a_tail, b_head));
        }
    }
    return best;
}

double
emdDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    SCALO_ASSERT(a.size() == b.size(), "size mismatch ", a.size(), " vs ",
                 b.size());
    double mass_a = 0.0, mass_b = 0.0;
    for (double v : a) {
        SCALO_ASSERT(v >= 0.0, "negative mass ", v);
        mass_a += v;
    }
    for (double v : b) {
        SCALO_ASSERT(v >= 0.0, "negative mass ", v);
        mass_b += v;
    }
    if (mass_a <= 0.0 || mass_b <= 0.0)
        return 0.0;

    // EMD on the line == L1 distance between CDFs (normalised mass).
    double cdf_a = 0.0, cdf_b = 0.0, emd = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        cdf_a += a[i] / mass_a;
        cdf_b += b[i] / mass_b;
        emd += std::abs(cdf_a - cdf_b);
    }
    return emd;
}

double
emdSignalDistance(const std::vector<double> &a,
                  const std::vector<double> &b)
{
    SCALO_ASSERT(a.size() == b.size(), "size mismatch ", a.size(), " vs ",
                 b.size());
    double lo = 0.0;
    for (double v : a)
        lo = std::min(lo, v);
    for (double v : b)
        lo = std::min(lo, v);
    std::vector<double> pa(a), pb(b);
    for (double &v : pa)
        v -= lo;
    for (double &v : pb)
        v -= lo;
    return emdDistance(pa, pb);
}

const char *
measureName(Measure measure)
{
    switch (measure) {
      case Measure::Euclidean:
        return "Euclidean";
      case Measure::Dtw:
        return "DTW";
      case Measure::Xcor:
        return "XCOR";
      case Measure::Emd:
        return "EMD";
    }
    SCALO_PANIC("unknown measure");
}

double
dissimilarity(Measure measure, const std::vector<double> &a,
              const std::vector<double> &b)
{
    switch (measure) {
      case Measure::Euclidean:
        return euclideanDistance(a, b);
      case Measure::Dtw:
        // Sakoe-Chiba band of ~10% of the window, the classic setting.
        return dtwDistance(a, b, std::max<std::size_t>(1, a.size() / 10));
      case Measure::Xcor:
        return 1.0 - crossCorrelation(a, b, a.empty() ? 0 : a.size() / 8);
      case Measure::Emd:
        return emdSignalDistance(a, b);
    }
    SCALO_PANIC("unknown measure");
}

} // namespace scalo::signal
