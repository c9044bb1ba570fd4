//===- adt/SmallVarMap.h - Adaptive small-map-optimised hash map ----------===//
///
/// \file
/// An adaptive map from small unsigned ids: up to \p InlineN entries live
/// in a sorted inline array; beyond that the map spills into a pooled
/// open-addressing hash table.
///
/// The paper's O(n log n) bound on variable-map operations (Lemma 6.1)
/// is carried by balanced-tree maps, and the second log factor of
/// Theorem 6.3 is the cost of one tree operation. But nothing in the
/// hasher reads a map in key order: a merge alters each moved entry by
/// its own key, and the map hash and the root fold are XORs. So the
/// spilled representation can be a hash table, which drops that log
/// factor, while the smaller-into-bigger discipline (Section 4.8) still
/// bounds the number of operations.
///
/// On real expressions most per-node maps hold only a handful of entries
/// (a Var leaf starts a singleton, and merge *sources* stay tiny). Those
/// get a branchless lower-bound scan over contiguous inline storage and
/// never touch the pool. Costs:
///
///   find / alter / remove : O(InlineN) inline, expected O(1) spilled
///   iteration             : O(n) inline (ascending), O(capacity) spilled
///                           (unordered)
///   size                  : O(1)
///
/// The spilled table has a power-of-two capacity, linear probing, load
/// <= 1/2 and backward-shift deletion, so it needs no tombstones. A key's
/// home slot is the top bits of `Key * M` (multiply-shift), where M is a
/// random odd multiplier drawn once per process: a fixed one would let a
/// hostile input pick free-variable ids that share one home slot. Keys
/// must not equal the empty-key sentinel `~K(0)`; interned names and a
/// blob's local name ids are always below it.
///
/// Spilling is one-way until \ref clear, and a table never shrinks: a map
/// that grew past InlineN stays a table even if removals shrink it back,
/// so a map sitting at the boundary cannot thrash between
/// representations. A table's capacity is below 4x the map's peak size,
/// and the hasher scans each map once (as a merge source, or at the root)
/// before clearing it, so iteration stays O(entries) amortised. `clear()`
/// returns the map to inline mode, which is what the hashing pass does
/// between expressions.
///
/// Table blocks come from the map's \ref Pool, one free list per
/// capacity, so a warmed-up hasher performs no heap allocation.
///
/// The class is a drop-in for \ref AvlMap in \ref AlphaHasher (same
/// `find`/`alter`/`set`/`remove`/`forEach`/`clear` surface, same
/// move-only ownership, a pool with the same counters), selected via the
/// map-policy template parameter; the AVL-only configuration remains the
/// reference for tests and for the ablation benchmark
/// (bench/hash_throughput.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef HMA_ADT_SMALLVARMAP_H
#define HMA_ADT_SMALLVARMAP_H

#include "adt/AvlMap.h"
#include "support/HashCode.h"

#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <random>
#include <type_traits>
#include <utility>

namespace hma {

/// Map from unsigned id \p K to \p V with inline storage for small sizes.
///
/// \p V must be trivially copyable (entries are moved with plain
/// assignment) and trivially destructible (table slots are never
/// destroyed, only overwritten or freed with their block).
template <typename K, typename V, unsigned InlineN = 8> class SmallVarMap {
  static_assert(std::is_unsigned_v<K> && sizeof(K) <= sizeof(uint64_t),
                "keys are unsigned ids, hashed by multiply-shift");
  static_assert(std::is_trivially_copyable_v<V> &&
                    std::is_trivially_destructible_v<V>,
                "entries are relocated with plain assignment");
  static_assert(InlineN >= 1 && InlineN <= 64, "the inline scan is linear");

  struct Slot {
    K Key; ///< EmptyKey marks a free slot.
    V Val;
  };

  /// Smallest log2 capacity whose table holds InlineN + 1 entries at load
  /// <= 1/2: the capacity a map spills into.
  static constexpr unsigned minLogCap() {
    unsigned L = 0;
    while ((size_t(1) << L) < 2 * (size_t(InlineN) + 1))
      ++L;
    return L;
  }
  static constexpr unsigned MinLogCap = minLogCap();
  static_assert((size_t(1) << MinLogCap) * sizeof(Slot) >= sizeof(Slot *),
                "a free block stores the free-list link in its bytes");
  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "blocks come from plain operator new");

public:
  /// The key no entry may have: it marks free table slots.
  static constexpr K EmptyKey = static_cast<K>(~K(0));

  /// Exposed for boundary tests (spill at InlineCapacity + 1 entries).
  static constexpr unsigned InlineCapacity = InlineN;

  /// Shared table-block allocator, with one free list per capacity, and
  /// the multiplier that picks home slots. All maps taking part in one
  /// summarisation pass should share one pool.
  class Pool {
  public:
    /// A pool hashing with the per-process random multiplier.
    Pool() : Pool(processMultiplier()) {}
    /// A pool hashing with \p Multiplier (odd). Tests use a fixed one to
    /// force keys onto chosen home slots.
    explicit Pool(uint64_t Multiplier) : Mult(Multiplier) {
      assert((Multiplier & 1) && "multiply-shift needs an odd multiplier");
    }
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;
    /// Every map using the pool must be gone: all blocks are free.
    ~Pool() {
      assert(Live == 0 && "a map outlived its pool");
      for (unsigned L = 0; L != MaxLogCap; ++L)
        while (Slot *B = Free[L]) {
          Free[L] = nextFree(B);
          ::operator delete(static_cast<void *>(B));
        }
    }

    /// Table slots currently checked out by spilled maps.
    size_t liveNodes() const { return Live; }

    /// Table slots ever allocated (free-list reuse not counted). A steady
    /// value across calls is the "zero allocations per expression"
    /// evidence the benchmarks and index tests rely on.
    size_t allocatedNodes() const { return Allocated; }

    /// The home slot of \p Key in a table of 2^LogCap slots: the top
    /// LogCap bits of `Key * multiplier`.
    size_t home(K Key, unsigned LogCap) const {
      assert(LogCap >= 1 && LogCap <= 64 && "a shift must be below 64");
      return static_cast<size_t>((static_cast<uint64_t>(Key) * Mult) >>
                                 (64 - LogCap));
    }

  private:
    friend class SmallVarMap;

    /// A block of 2^LogCap slots, every one free.
    Slot *acquire(unsigned LogCap) {
      const size_t Cap = size_t(1) << LogCap;
      Slot *B = Free[LogCap];
      if (B) {
        Free[LogCap] = nextFree(B);
      } else {
        // One heap block per table: large tables get their own pages, so
        // the pool holds no slab slack.
        B = static_cast<Slot *>(::operator new(Cap * sizeof(Slot)));
        Allocated += Cap;
      }
      for (size_t I = 0; I != Cap; ++I)
        B[I].Key = EmptyKey;
      Live += Cap;
      return B;
    }

    /// A free block's first bytes hold the next free block of its size.
    static Slot *nextFree(Slot *B) {
      Slot *Next;
      std::memcpy(&Next, static_cast<void *>(B), sizeof(Slot *));
      return Next;
    }

    void release(Slot *B, unsigned LogCap) {
      std::memcpy(static_cast<void *>(B), &Free[LogCap], sizeof(Slot *));
      Free[LogCap] = B;
      Live -= size_t(1) << LogCap;
    }

    /// Drawn once per process, so every hasher shares it and none pays a
    /// draw. Odd, as multiply-shift requires.
    static uint64_t processMultiplier() {
      static const uint64_t M = [] {
        uint64_t Seed = static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
        try {
          std::random_device RD;
          Seed ^= (static_cast<uint64_t>(RD()) << 32) ^ RD();
        } catch (...) {
          // No entropy device: the clock alone still varies per process.
        }
        return detail::splitmix64(Seed) | 1;
      }();
      return M;
    }

    static constexpr unsigned MaxLogCap = 64;
    Slot *Free[MaxLogCap] = {};
    uint64_t Mult;
    size_t Live = 0;
    size_t Allocated = 0;
  };

  explicit SmallVarMap(Pool &P) : P(&P) {}

  SmallVarMap(const SmallVarMap &) = delete;
  SmallVarMap &operator=(const SmallVarMap &) = delete;

  SmallVarMap(SmallVarMap &&O) { take(O); }
  SmallVarMap &operator=(SmallVarMap &&O) {
    if (this != &O) {
      clear(); // releases our table, if any
      take(O);
    }
    return *this;
  }

  ~SmallVarMap() { clear(); }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }
  bool spilled() const { return Table != nullptr; }
  Pool &pool() const { return *P; }

  /// Find the value for \p Key, or null.
  V *find(const K &Key) {
    if (Table) {
      Slot &S = Table[probe(Key)];
      return S.Key == Key ? &S.Val : nullptr;
    }
    unsigned I = 0;
    return findInline(Key, I) ? &Vals[I] : nullptr;
  }
  const V *find(const K &Key) const {
    return const_cast<SmallVarMap *>(this)->find(Key);
  }

  /// Insert or update: sets the value for \p Key to
  /// `MakeVal(existing-or-null)` (the paper's `alterVM`, Section 4.8).
  template <typename F> void alter(const K &Key, F &&MakeVal) {
    assert(Key != EmptyKey && "the empty-key sentinel is not a key");
    if (Table) {
      alterSpilled(Key, MakeVal);
      return;
    }
    unsigned I = 0;
    if (findInline(Key, I)) {
      Vals[I] = MakeVal(&Vals[I]);
      return;
    }
    if (Count == InlineN) {
      spillToTable();
      alterSpilled(Key, MakeVal);
      return;
    }
    // Shift the tail up one slot and insert in order.
    for (unsigned J = Count; J > I; --J) {
      Keys[J] = Keys[J - 1];
      Vals[J] = Vals[J - 1];
    }
    Keys[I] = Key;
    Vals[I] = MakeVal(static_cast<V *>(nullptr));
    ++Count;
  }

  /// Convenience: plain insert-or-assign.
  void set(const K &Key, const V &Val) {
    alter(Key, [&](V *) { return Val; });
  }

  /// Remove \p Key, returning its value if present (the paper's
  /// `removeFromVM`, Section 4.4).
  std::optional<V> remove(const K &Key) {
    if (Table)
      return removeSpilled(Key);
    unsigned I = 0;
    if (!findInline(Key, I))
      return std::nullopt;
    V Out = Vals[I];
    --Count;
    for (unsigned J = I; J != Count; ++J) {
      Keys[J] = Keys[J + 1];
      Vals[J] = Vals[J + 1];
    }
    return Out;
  }

  /// Visit all entries: in ascending key order while inline, in table
  /// order once spilled.
  template <typename F> void forEach(F &&Fn) const {
    if (Table) {
      for (size_t I = 0, Cap = capacity(); I != Cap; ++I)
        if (Table[I].Key != EmptyKey)
          Fn(Table[I].Key, Table[I].Val);
      return;
    }
    for (unsigned I = 0; I != Count; ++I)
      Fn(Keys[I], Vals[I]);
  }

  /// Drop all entries (a table goes back to the pool) and return to the
  /// inline representation.
  void clear() {
    if (Table)
      P->release(Table, LogCap);
    Table = nullptr;
    Count = 0;
    LogCap = 0;
  }

  /// Validate representation invariants (test support). Inline: keys
  /// strictly ascending. Spilled: load <= 1/2, the count equals the
  /// occupied slots, and every key is reachable from its home slot
  /// without crossing a free slot or a duplicate of itself.
  bool checkInvariants() const {
    if (!Table)
      return Count <= InlineN && LogCap == 0 && isSortedInline();
    if (LogCap < MinLogCap || 2 * size_t(Count) > capacity())
      return false;
    const size_t Mask = capacity() - 1;
    size_t Occupied = 0;
    for (size_t I = 0; I <= Mask; ++I) {
      const K Key = Table[I].Key;
      if (Key == EmptyKey)
        continue;
      ++Occupied;
      for (size_t J = P->home(Key, LogCap); J != I; J = (J + 1) & Mask)
        if (Table[J].Key == EmptyKey || Table[J].Key == Key)
          return false;
    }
    return Occupied == Count;
  }

private:
  size_t capacity() const { return size_t(1) << LogCap; }

  /// Steal \p O's contents, leaving it empty and inline.
  void take(SmallVarMap &O) {
    P = O.P;
    Table = O.Table;
    Count = O.Count;
    LogCap = O.LogCap;
    copyInline(O);
    O.Table = nullptr;
    O.Count = 0;
    O.LogCap = 0;
  }

  /// Blit the whole inline arrays over (keys and values are trivially
  /// copyable): a fixed-size, branchless memcpy beats a count-dependent
  /// loop, and stale slots past Count are never read.
  void copyInline(const SmallVarMap &O) {
    std::memcpy(static_cast<void *>(Keys), O.Keys, sizeof(Keys));
    std::memcpy(static_cast<void *>(Vals), O.Vals, sizeof(Vals));
  }

  /// Set \p I to the index of the first inline key >= \p Key and return
  /// whether that key is \p Key. A branchless linear scan: InlineN is
  /// small and the arrays are contiguous, so this is a handful of
  /// compare-and-add steps with no mispredicted branches, beating both
  /// binary search and pointer chasing at these sizes. Every key read
  /// stays below Count.
  bool findInline(const K &Key, unsigned &I) const {
    bool Hit = false;
    for (unsigned J = 0; J != Count; ++J) {
      I += static_cast<unsigned>(Keys[J] < Key);
      Hit |= Keys[J] == Key;
    }
    return Hit;
  }

  bool isSortedInline() const {
    for (unsigned I = 1; I < Count; ++I)
      if (!(Keys[I - 1] < Keys[I]))
        return false;
    return true;
  }

  /// The slot holding \p Key, or the free slot that ends its probe run.
  /// Load <= 1/2 guarantees the run ends.
  size_t probe(const K &Key) const {
    const size_t Mask = capacity() - 1;
    size_t I = P->home(Key, LogCap);
    while (Table[I].Key != Key && Table[I].Key != EmptyKey)
      I = (I + 1) & Mask;
    return I;
  }

  template <typename F> void alterSpilled(const K &Key, F &MakeVal) {
    size_t I = probe(Key);
    if (Table[I].Key == Key) {
      Table[I].Val = MakeVal(&Table[I].Val);
      return;
    }
    if (2 * (size_t(Count) + 1) > capacity()) {
      rehash(LogCap + 1);
      I = probe(Key);
    }
    Table[I].Key = Key;
    Table[I].Val = MakeVal(static_cast<V *>(nullptr));
    ++Count;
  }

  /// Backward-shift deletion: pull each later entry of the cluster into
  /// the hole unless that would move it before its home slot, so no
  /// tombstone is left behind.
  std::optional<V> removeSpilled(const K &Key) {
    size_t Hole = probe(Key);
    if (Table[Hole].Key != Key)
      return std::nullopt;
    V Out = Table[Hole].Val;
    const size_t Mask = capacity() - 1;
    for (size_t J = (Hole + 1) & Mask; Table[J].Key != EmptyKey;
         J = (J + 1) & Mask) {
      // The entry at J may fill the hole iff its home is not in the
      // cyclic range (Hole, J]: its displacement reaches back to Hole.
      size_t Home = P->home(Table[J].Key, LogCap);
      if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
        Table[Hole] = Table[J];
        Hole = J;
      }
    }
    Table[Hole].Key = EmptyKey;
    --Count;
    return Out;
  }

  /// Insert a key known to be absent, without a growth check.
  void insertFresh(const K &Key, const V &Val) {
    Slot &S = Table[probe(Key)];
    S.Key = Key;
    S.Val = Val;
  }

  /// Move every entry into a fresh table of 2^NewLogCap slots.
  void rehash(unsigned NewLogCap) {
    Slot *Old = Table;
    const size_t OldCap = capacity();
    const unsigned OldLogCap = LogCap;
    Table = P->acquire(NewLogCap);
    LogCap = static_cast<uint8_t>(NewLogCap);
    for (size_t I = 0; I != OldCap; ++I)
      if (Old[I].Key != EmptyKey)
        insertFresh(Old[I].Key, Old[I].Val);
    P->release(Old, OldLogCap);
  }

  /// Move every inline entry into a table of the minimum capacity: paid
  /// once per map, only when it outgrows the inline storage.
  void spillToTable() {
    assert(!Table && Count == InlineN);
    Table = P->acquire(MinLogCap);
    LogCap = MinLogCap;
    for (unsigned I = 0; I != Count; ++I)
      insertFresh(Keys[I], Vals[I]);
  }

  Pool *P = nullptr;
  Slot *Table = nullptr; ///< Non-null iff spilled.
  uint32_t Count = 0;    ///< Entries, inline or in Table.
  uint8_t LogCap = 0;    ///< log2 of Table's capacity; 0 while inline.
  K Keys[InlineN];       ///< Inline entries, ascending; stale once spilled.
  V Vals[InlineN];
};

/// Map policies for \ref AlphaHasher: a policy names the map template the
/// hasher builds its variable maps from. The adaptive policy is the
/// production default; the AVL-only policy reproduces the paper's plain
/// balanced-tree configuration as the reference for tests and ablation
/// benchmarks.
struct AdaptiveVarMapPolicy {
  static constexpr const char *Name = "adaptive";
  template <typename K, typename V> using Map = SmallVarMap<K, V>;
};

struct AvlVarMapPolicy {
  static constexpr const char *Name = "avl";
  template <typename K, typename V> using Map = AvlMap<K, V>;
};

} // namespace hma

#endif // HMA_ADT_SMALLVARMAP_H
