/**
 * @file
 * Radix-2 fast Fourier transform (the FFT PE) plus band-power feature
 * extraction used by the seizure-detection front end.
 *
 * The transforms execute through the planned kernel layer
 * (`FftPlan`, fft_plan.hpp): cached twiddle/bit-reversal tables, a
 * real-input `rfft` that halves the complex work, and caller-provided
 * scratch so steady-state spectral features allocate nothing.
 */

#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "scalo/signal/fft_plan.hpp"

namespace scalo::signal {

/** A contiguous frequency band in Hz. */
struct Band
{
    double lowHz;
    double highHz;
};

/**
 * Reusable workspace for the spectral feature kernels. Buffers grow to
 * the largest size seen and are reused; the plan pointer caches the
 * last FFT size so repeated same-length windows skip the plan-cache
 * lookup entirely.
 */
struct SpectrumScratch
{
    std::vector<double> padded;
    std::vector<std::complex<double>> spectrum;
    std::vector<std::complex<double>> work;
    std::shared_ptr<const FftPlan> plan;
};

/**
 * Magnitude spectrum of a real signal, zero-padded to the next power of
 * two. @return n/2+1 magnitudes (DC .. Nyquist).
 */
std::vector<double> magnitudeSpectrum(const std::vector<double> &input);

/**
 * Allocation-free magnitude spectrum: writes the n/2+1 magnitudes into
 * @p out using @p scratch for all temporaries.
 */
void magnitudeSpectrum(const std::vector<double> &input,
                       SpectrumScratch &scratch,
                       std::vector<double> &out);

/**
 * Mean spectral power of @p input in each requested band.
 *
 * @param input       real signal
 * @param sample_rate sampling rate in Hz
 * @param bands       inclusive frequency bands
 * @return one mean-power value per band
 */
std::vector<double> bandPower(const std::vector<double> &input,
                              double sample_rate,
                              const std::vector<Band> &bands);

/**
 * Allocation-free band power: writes one mean-power value per band
 * into @p out using @p scratch for all temporaries.
 */
void bandPower(const std::vector<double> &input, double sample_rate,
               const std::vector<Band> &bands, SpectrumScratch &scratch,
               std::vector<double> &out);

/** Smallest power of two >= n (n == 0 maps to 1). */
std::size_t nextPowerOfTwo(std::size_t n);

} // namespace scalo::signal
