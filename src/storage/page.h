#ifndef BLAS_STORAGE_PAGE_H_
#define BLAS_STORAGE_PAGE_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace blas {

/// Fixed page size of the storage layer (bytes).
inline constexpr size_t kPageSize = 8192;

/// Identifier of a page within a BufferPool. kInvalidPage marks "none".
using PageId = uint32_t;
inline constexpr PageId kInvalidPage = 0xFFFFFFFFu;

/// \brief One fixed-size storage page.
///
/// Pages are opaque byte containers; the B+-tree layouts reinterpret them.
/// Alignment is 64 so any POD node layout (including 128-bit keys) can be
/// placed at offset 0.
struct alignas(64) Page {
  std::array<std::byte, kPageSize> bytes{};

  template <typename T>
  T* As() {
    static_assert(sizeof(T) <= kPageSize, "layout exceeds page size");
    return reinterpret_cast<T*>(bytes.data());
  }
  template <typename T>
  const T* As() const {
    static_assert(sizeof(T) <= kPageSize, "layout exceeds page size");
    return reinterpret_cast<const T*>(bytes.data());
  }
};

}  // namespace blas

#endif  // BLAS_STORAGE_PAGE_H_
