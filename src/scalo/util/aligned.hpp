/**
 * @file
 * Grow-only aligned storage for the wide-kernel layer. The SIMD packs
 * (util/simd.hpp) load fastest from 64-byte-aligned rows, and the hot
 * scratch workspaces (DtwScratch, the FFT split buffers) must not
 * reallocate across mixed-size call sweeps — a candidate-verification
 * loop touching 96-, 64-, then 128-sample windows should settle on
 * one allocation, not churn.
 * std::vector guarantees neither, so this is the storage primitive
 * they share.
 */

#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace scalo::util {

/**
 * Grow-only, 64-byte-aligned, uninitialised buffer of a trivial
 * numeric type. ensure(n) returns a pointer valid for n elements:
 * existing capacity is reused untouched (pointer-stable), larger
 * requests reallocate to exactly n. Contents after growth are
 * unspecified — every consumer fully writes before reading.
 */
template <typename T>
class AlignedBuffer
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "AlignedBuffer is for plain numeric payloads");

  public:
    /** Alignment of every allocation (one cache line / widest pack). */
    static constexpr std::size_t kAlignment = 64;

    AlignedBuffer() = default;

    AlignedBuffer(AlignedBuffer &&other) noexcept
        : ptr(std::exchange(other.ptr, nullptr)),
          cap(std::exchange(other.cap, 0))
    {
    }

    AlignedBuffer &
    operator=(AlignedBuffer &&other) noexcept
    {
        if (this != &other) {
            release();
            ptr = std::exchange(other.ptr, nullptr);
            cap = std::exchange(other.cap, 0);
        }
        return *this;
    }

    AlignedBuffer(const AlignedBuffer &) = delete;
    AlignedBuffer &operator=(const AlignedBuffer &) = delete;

    ~AlignedBuffer() { release(); }

    /**
     * Pointer valid for @p n elements, growing only when @p n exceeds
     * the current capacity (shrinking never releases memory, so a
     * sweep over mixed sizes reallocates at most for its maximum).
     */
    T *
    ensure(std::size_t n)
    {
        if (n > cap) {
            T *fresh = static_cast<T *>(::operator new(
                n * sizeof(T), std::align_val_t{kAlignment}));
            release();
            ptr = fresh;
            cap = n;
        }
        return ptr;
    }

    T *data() { return ptr; }
    const T *data() const { return ptr; }

    /** Elements the current allocation can hold. */
    std::size_t capacity() const { return cap; }

  private:
    void
    release()
    {
        ::operator delete(ptr, std::align_val_t{kAlignment});
        ptr = nullptr;
        cap = 0;
    }

    T *ptr = nullptr;
    std::size_t cap = 0;
};

} // namespace scalo::util
