/**
 * @file
 * Portable fixed-width SIMD packs: the vector abstraction under every
 * wide kernel (distance, FFT butterflies, linalg, batched hashing).
 *
 * `simd::pack<double, W>` holds W lanes and exists in two
 * implementations selected at configure time by the SCALO_SIMD CMake
 * option:
 *
 *  - **wide** (AUTO/WIDE on GCC or Clang): compiler vector extensions
 *    (`__attribute__((vector_size)))`), which lower to the best
 *    instructions the target allows — AVX-512 with
 *    `-DSCALO_MARCH=native` on a capable box, split SSE2 sequences on
 *    the x86-64 baseline. Wider-than-hardware packs are emulated
 *    correctly, so the default width need not match the machine.
 *  - **scalar** (SCALAR, or AUTO on a compiler without vector
 *    extensions): a plain W-element array with per-lane loops.
 *
 * Both implementations keep the same lane structure and the same
 * horizontal-reduce order, so a kernel written against pack produces
 * **bit-identical results in wide and scalar builds** (and across
 * `-march=` levels): the build mode changes instruction selection,
 * never arithmetic order. Parity of scalar vs. wide CI builds is
 * therefore exact, not a tolerance.
 *
 * Conventions:
 *  - `kLanes` is the default pack width for double kernels;
 *    `paddedSize(n)` rounds a row length up to it (DtwScratch and
 *    the FFT plan pad their aligned rows with it).
 *  - `load`/`store` require util::AlignedBuffer::kAlignment-aligned
 *    pointers; `loadu`/`storeu` accept any double-aligned pointer.
 *  - `min`/`max` follow std::min/std::max exactly, including NaN
 *    behaviour (comparison false keeps the first argument).
 *  - `sum()` reduces lanes strictly left to right; kernels that
 *    document a tolerance vs. the naive references owe it to lane
 *    blocking, not to the reduce.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(SCALO_SIMD_SCALAR)
#define SCALO_SIMD_IS_WIDE 0
#elif defined(__GNUC__) || defined(__clang__)
#define SCALO_SIMD_IS_WIDE 1
#elif defined(SCALO_SIMD_WIDE_REQUIRED)
#error "SCALO_SIMD=WIDE requires GCC/Clang vector extensions; \
use SCALO_SIMD=AUTO or SCALAR with this compiler"
#else
#define SCALO_SIMD_IS_WIDE 0
#endif

#ifndef SCALO_SIMD_WIDTH
/**
 * Default double-pack width. 8 doubles = one AVX-512 register, two
 * AVX registers, or four SSE2 registers — fixed across targets so
 * results do not depend on -march.
 */
#define SCALO_SIMD_WIDTH 8
#endif

namespace scalo::simd {

/** Lanes in the default double pack (see SCALO_SIMD_WIDTH). */
inline constexpr std::size_t kLanes = SCALO_SIMD_WIDTH;

/** True when packs compile to compiler vector extensions. */
inline constexpr bool kWide = SCALO_SIMD_IS_WIDE == 1;

/** Build-mode name for bench/metric context ("wide" / "scalar"). */
inline constexpr const char *kModeName = kWide ? "wide" : "scalar";

/** @p n rounded up to a multiple of @p lanes. */
constexpr std::size_t
paddedSize(std::size_t n, std::size_t lanes = kLanes)
{
    return (n + lanes - 1) / lanes * lanes;
}

template <typename T, std::size_t W> struct pack;

#if SCALO_SIMD_IS_WIDE

// Passing packs by value draws GCC's "ABI for parameters with 64-byte
// alignment changed" note when the target ISA is narrower than the
// pack. Every pack function is defined inline in this header, so no
// ABI boundary exists to mismatch; silence the note.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

/** Wide implementation over GCC/Clang vector extensions. */
template <std::size_t W>
struct pack<double, W>
{
    static_assert(W >= 2 && (W & (W - 1)) == 0,
                  "pack width must be a power of two >= 2");

    // typedef (not using-alias) form: GCC drops the attribute from
    // alias declarations silently.
    typedef double native
        __attribute__((vector_size(W * sizeof(double))));
    /** Same shape, element alignment only: unaligned memory ops. */
    typedef double native_u
        __attribute__((vector_size(W * sizeof(double)),
                       aligned(alignof(double))));
    typedef std::int64_t mask_native
        __attribute__((vector_size(W * sizeof(std::int64_t))));

    native v;

    static constexpr std::size_t width = W;

    static pack zero() { return pack{native{}}; }

    static pack
    broadcast(double x)
    {
        return pack{native{} + x};
    }

    /** @pre p is util::AlignedBuffer::kAlignment-aligned. */
    static pack
    load(const double *p)
    {
        return pack{*reinterpret_cast<const native *>(p)};
    }

    static pack
    loadu(const double *p)
    {
        return pack{
            static_cast<native>(
                *reinterpret_cast<const native_u *>(p))};
    }

    /** @pre p is util::AlignedBuffer::kAlignment-aligned. */
    void
    store(double *p) const
    {
        *reinterpret_cast<native *>(p) = v;
    }

    void
    storeu(double *p) const
    {
        *reinterpret_cast<native_u *>(p) = static_cast<native_u>(v);
    }

    double
    operator[](std::size_t lane) const
    {
        // GCC cannot subscript a dependent vector type inside the
        // template body; spill through a stack array (optimised to a
        // lane extract at instantiation).
        alignas(64) double lanes[W];
        store(lanes);
        return lanes[lane];
    }

    friend pack operator+(pack a, pack b) { return pack{a.v + b.v}; }
    friend pack operator-(pack a, pack b) { return pack{a.v - b.v}; }
    friend pack operator*(pack a, pack b) { return pack{a.v * b.v}; }

    pack &
    operator+=(pack other)
    {
        v += other.v;
        return *this;
    }

    pack operator-() const { return pack{-v}; }

    /** Lanewise std::min: (b < a) ? b : a, NaN keeps a. */
    friend pack
    min(pack a, pack b)
    {
        return pack{(b.v < a.v) ? b.v : a.v};
    }

    /** Lanewise std::max: (a < b) ? b : a, NaN keeps a. */
    friend pack
    max(pack a, pack b)
    {
        return pack{(a.v < b.v) ? b.v : a.v};
    }

    /** Lanewise |x| by clearing the sign bit (NaN payload kept). */
    friend pack
    abs(pack x)
    {
        // C-style casts between same-size vector types are the GNU
        // bit-reinterpret idiom (reinterpret_cast trips
        // -Wstrict-aliasing here).
        const mask_native bits =
            (mask_native)x.v & 0x7fffffffffffffffLL;
        return pack{(native)bits};
    }

    /** Strict left-to-right lane sum (deterministic reduce order). */
    double
    sum() const
    {
        alignas(64) double lanes[W];
        store(lanes);
        double acc = lanes[0];
        for (std::size_t lane = 1; lane < W; ++lane)
            acc += lanes[lane];
        return acc;
    }

    /** Left-to-right lane minimum (std::min semantics per step). */
    double
    lanesMin() const
    {
        alignas(64) double lanes[W];
        store(lanes);
        double best = lanes[0];
        for (std::size_t lane = 1; lane < W; ++lane)
            best = lanes[lane] < best ? lanes[lane] : best;
        return best;
    }
};

#pragma GCC diagnostic pop

#else // scalar fallback

/**
 * Scalar fallback: identical lane structure and reduce order, plain
 * loops. Guaranteed correct anywhere; selected by SCALO_SIMD=SCALAR
 * (or AUTO on a compiler without vector extensions).
 */
template <std::size_t W>
struct pack<double, W>
{
    static_assert(W >= 2 && (W & (W - 1)) == 0,
                  "pack width must be a power of two >= 2");

    double v[W];

    static constexpr std::size_t width = W;

    static pack
    zero()
    {
        pack out{};
        return out;
    }

    static pack
    broadcast(double x)
    {
        pack out;
        for (std::size_t lane = 0; lane < W; ++lane)
            out.v[lane] = x;
        return out;
    }

    static pack
    load(const double *p)
    {
        return loadu(p);
    }

    static pack
    loadu(const double *p)
    {
        pack out;
        for (std::size_t lane = 0; lane < W; ++lane)
            out.v[lane] = p[lane];
        return out;
    }

    void
    store(double *p) const
    {
        storeu(p);
    }

    void
    storeu(double *p) const
    {
        for (std::size_t lane = 0; lane < W; ++lane)
            p[lane] = v[lane];
    }

    double operator[](std::size_t lane) const { return v[lane]; }

    friend pack
    operator+(pack a, pack b)
    {
        for (std::size_t lane = 0; lane < W; ++lane)
            a.v[lane] += b.v[lane];
        return a;
    }

    friend pack
    operator-(pack a, pack b)
    {
        for (std::size_t lane = 0; lane < W; ++lane)
            a.v[lane] -= b.v[lane];
        return a;
    }

    friend pack
    operator*(pack a, pack b)
    {
        for (std::size_t lane = 0; lane < W; ++lane)
            a.v[lane] *= b.v[lane];
        return a;
    }

    pack &
    operator+=(pack other)
    {
        for (std::size_t lane = 0; lane < W; ++lane)
            v[lane] += other.v[lane];
        return *this;
    }

    pack
    operator-() const
    {
        pack out;
        for (std::size_t lane = 0; lane < W; ++lane)
            out.v[lane] = -v[lane];
        return out;
    }

    friend pack
    min(pack a, pack b)
    {
        for (std::size_t lane = 0; lane < W; ++lane)
            a.v[lane] =
                b.v[lane] < a.v[lane] ? b.v[lane] : a.v[lane];
        return a;
    }

    friend pack
    max(pack a, pack b)
    {
        for (std::size_t lane = 0; lane < W; ++lane)
            a.v[lane] =
                a.v[lane] < b.v[lane] ? b.v[lane] : a.v[lane];
        return a;
    }

    friend pack
    abs(pack x)
    {
        for (std::size_t lane = 0; lane < W; ++lane)
            x.v[lane] = std::bit_cast<double>(
                std::bit_cast<std::uint64_t>(x.v[lane]) &
                0x7fffffffffffffffULL);
        return x;
    }

    double
    sum() const
    {
        double acc = v[0];
        for (std::size_t lane = 1; lane < W; ++lane)
            acc += v[lane];
        return acc;
    }

    double
    lanesMin() const
    {
        double best = v[0];
        for (std::size_t lane = 1; lane < W; ++lane)
            best = v[lane] < best ? v[lane] : best;
        return best;
    }
};

#endif // SCALO_SIMD_IS_WIDE

/** The default-width double pack every wide kernel is written to. */
using dpack = pack<double, kLanes>;

} // namespace scalo::simd
