//===- support/Arena.h - Bump-pointer allocation --------------------------===//
///
/// \file
/// A bump-pointer arena for trivially-destructible objects.
///
/// Expression trees, reference e-summaries (Structure / PosTree nodes) and
/// persistent-map nodes are allocated in arenas. This matters for three
/// reasons:
///
///  1. The unbalanced benchmarks build spines of millions of nodes;
///     individually heap-allocated nodes with recursive destructors would
///     overflow the stack and thrash the allocator.
///  2. Hashing is allocation-dominated in the naive implementation; a bump
///     allocator keeps the constant factors representative of a production
///     compiler (cf. Section 7's interest in constant factors).
///  3. Persistent data structures (Section 6.3 incrementality) share
///     structure; arena lifetime management sidesteps reference counting.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_SUPPORT_ARENA_H
#define HMA_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hma {

/// A growable bump-pointer arena. Objects are never destroyed
/// individually; all memory is released when the arena dies. Only
/// trivially-destructible types may be created in it.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  Arena(Arena &&) = default;
  Arena &operator=(Arena &&) = default;

  /// Allocate \p Size bytes aligned to \p Align.
  void *allocate(size_t Size, size_t Align) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 &&
           "alignment must be a power of two");
    uintptr_t P = reinterpret_cast<uintptr_t>(Cur);
    uintptr_t Aligned = (P + Align - 1) & ~(Align - 1);
    if (Aligned + Size > reinterpret_cast<uintptr_t>(End)) {
      grow(Size + Align);
      P = reinterpret_cast<uintptr_t>(Cur);
      Aligned = (P + Align - 1) & ~(Align - 1);
    }
    Cur = reinterpret_cast<char *>(Aligned + Size);
    Allocated += Size;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Construct a \p T in the arena.
  template <typename T, typename... Args> T *create(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(A)...);
  }

  /// Copy a string into the arena; the returned view stays valid for the
  /// arena's lifetime.
  std::string_view copyString(std::string_view S) {
    if (S.empty())
      return {};
    char *Mem = static_cast<char *>(allocate(S.size(), 1));
    std::memcpy(Mem, S.data(), S.size());
    return std::string_view(Mem, S.size());
  }

  /// Total payload bytes handed out (excludes slab slack).
  size_t bytesAllocated() const { return Allocated; }

  /// Number of slabs acquired from the system allocator.
  size_t numSlabs() const { return Slabs.size(); }

private:
  void grow(size_t AtLeast) {
    size_t Size = NextSlabSize;
    if (Size < AtLeast)
      Size = AtLeast;
    // Double up to a 16 MiB cap: large benchmark expressions should not
    // pay a syscall per node, small tests should not reserve megabytes.
    if (NextSlabSize < (16u << 20))
      NextSlabSize *= 2;
    // Not make_unique<char[]>: that zero-fills the slab and makes all of
    // it resident up front. Every object is constructed (and every copied
    // string written) before it is read, so the slab needs no fill.
    Slabs.push_back(std::unique_ptr<char[]>(new char[Size]));
    Cur = Slabs.back().get();
    End = Cur + Size;
  }

  std::vector<std::unique_ptr<char[]>> Slabs;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextSlabSize = 4096;
  size_t Allocated = 0;
};

} // namespace hma

#endif // HMA_SUPPORT_ARENA_H
