/**
 * @file
 * Signal-similarity measures used for seizure-propagation correlation and
 * spike-template matching (Section 2.2): dynamic time warping with a
 * Sakoe-Chiba band (the DTW PE; band = 1 degenerates to Euclidean
 * distance), Pearson cross-correlation (the XCOR PE), and the fast 1-D
 * Earth Mover's Distance computed on the microcontroller in the paper.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "scalo/util/aligned.hpp"

namespace scalo::signal {

/**
 * Reusable workspace for the banded DTW kernels: the two rolling DP
 * rows plus the per-row cost/bound arrays the vectorized band pass
 * writes. One scratch serves any number of sequential calls — the
 * single aligned allocation grows to the largest row size seen and is
 * never shrunk, so a mixed-size candidate sweep reallocates at most
 * for its maximum and is allocation-free in steady state.
 */
class DtwScratch
{
  public:
    /** Four equally-sized aligned rows carved out of the workspace. */
    struct Rows
    {
        double *prev;
        double *curr;
        double *cost;
        double *bound;
        /** Doubles per row (>= m + 1, padded to the pack width). */
        std::size_t stride;
    };

    /**
     * Rows sized for a banded DP over @p m columns. Internal to the
     * DTW kernels; row contents are unspecified on return.
     */
    Rows rows(std::size_t m);

    /** Bytes currently allocated (churn introspection for tests). */
    std::size_t
    capacityBytes() const
    {
        return storage.capacity() * sizeof(double);
    }

    /** Times rows() had to reallocate (churn introspection). */
    std::size_t reallocations() const { return reallocCount; }

  private:
    util::AlignedBuffer<double> storage;
    std::size_t reallocCount = 0;
};

/**
 * Dynamic time warping distance with a Sakoe-Chiba band.
 *
 * @param a, b  equal- or different-length signals
 * @param band  half-width of the Sakoe-Chiba band in samples; 1 restricts
 *              the warping path to the diagonal (Euclidean distance on
 *              equal-length inputs, up to the sqrt)
 * @return accumulated L1 cost along the optimal warping path
 */
double dtwDistance(const std::vector<double> &a,
                   const std::vector<double> &b, std::size_t band);

/** As above, with caller-provided scratch (no per-call allocation). */
double dtwDistance(const std::vector<double> &a,
                   const std::vector<double> &b, std::size_t band,
                   DtwScratch &scratch);

/**
 * Banded DTW with early abandoning: rows are pruned against
 * @p cutoff. Because every warping path crosses each row of the
 * banded DP matrix and costs are non-negative, the minimum entry of a
 * row lower-bounds the final distance; once that minimum exceeds
 * @p cutoff the true distance provably does too.
 *
 * @return the exact DTW distance when it is <= @p cutoff; otherwise
 *         some lower bound of the true distance that is > @p cutoff
 *         (callers must only compare the result against @p cutoff)
 */
double dtwDistanceEarlyAbandon(const std::vector<double> &a,
                               const std::vector<double> &b,
                               std::size_t band, double cutoff,
                               DtwScratch &scratch);

/** Euclidean (L2) distance. @pre a.size() == b.size() */
double euclideanDistance(const std::vector<double> &a,
                         const std::vector<double> &b);

/** Squared L2 distance over @p n contiguous samples (no sqrt). */
double euclideanDistanceSquared(const double *a, const double *b,
                                std::size_t n);

/**
 * Batched Euclidean distance from one query window to many candidate
 * windows: accumulates squared distances and defers the sqrt to a
 * single final pass. Each candidate's accumulation sequence is
 * exactly that of euclideanDistanceSquared(), so the batched results
 * are bitwise equal to per-pair calls. @p out is sized to match
 * @p candidates.
 * @pre every candidate has query.size() samples
 */
void euclideanDistanceMany(
    const std::vector<double> &query,
    const std::vector<const std::vector<double> *> &candidates,
    std::vector<double> &out);

/** Allocating convenience overload of the batched kernel. */
std::vector<double> euclideanDistanceMany(
    const std::vector<double> &query,
    const std::vector<const std::vector<double> *> &candidates);

/**
 * Maximum normalised Pearson cross-correlation over lags in
 * [-max_lag, +max_lag]. @return value in [-1, 1]; 0 for degenerate input.
 */
double crossCorrelation(const std::vector<double> &a,
                        const std::vector<double> &b,
                        std::size_t max_lag);

/** Zero-lag Pearson correlation coefficient. */
double pearson(const std::vector<double> &a, const std::vector<double> &b);

/**
 * Fast 1-D Earth Mover's Distance between two non-negative "mass"
 * sequences: for 1-D histograms EMD reduces to the L1 distance between
 * cumulative distributions (the linear-time special case that makes the
 * microcontroller implementation feasible in the paper).
 *
 * Inputs are normalised to unit mass internally; all-zero input has zero
 * mass and compares equal to anything with zero distance.
 */
double emdDistance(const std::vector<double> &a,
                   const std::vector<double> &b);

/**
 * EMD between raw signals: the signals are shifted to be non-negative
 * (by the common minimum) and then compared with emdDistance().
 */
double emdSignalDistance(const std::vector<double> &a,
                         const std::vector<double> &b);

/** Which similarity measure a pipeline/hash is configured for. */
enum class Measure
{
    Euclidean,
    Dtw,
    Xcor,
    Emd,
};

/** Human-readable measure name ("DTW", "XCOR", ...). */
const char *measureName(Measure measure);

/**
 * Unified dissimilarity evaluation: distance-like for Euclidean/DTW/EMD,
 * and (1 - max cross-correlation) for XCOR so that smaller always means
 * more similar.
 */
double dissimilarity(Measure measure, const std::vector<double> &a,
                     const std::vector<double> &b);

} // namespace scalo::signal
