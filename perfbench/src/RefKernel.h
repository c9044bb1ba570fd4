//===- perfbench/src/RefKernel.h - Host-speed reference kernel --------------===//
///
/// \file
/// A fixed piece of work, written here and using only the standard
/// library, whose CPU time tracks how fast the host runs the kind of code
/// `subtree_hash` measures: a random binary tree, its nodes in one block
/// like an arena, is hashed bottom-up (leaves through an `unordered_map`
/// name table) and then
/// grouped by hash in preorder through an `unordered_map` and a vector
/// of vectors, the shape of `groupSubexpressionsByHash`.
///
/// On a shared virtual machine the speed of such memory- and
/// branch-heavy code drifts by a quarter or more for seconds at a time
/// while the code itself is unchanged. Timing the kernel right before and
/// after each measured sample and dividing by it removes most of that
/// drift. Nothing in the library runs here, so a change to the library
/// moves the measured sample and never the kernel.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFKERNEL_H
#define PERFBENCH_REFKERNEL_H

#include "Common.h"

#include <unordered_map>

namespace perfbench {

class RefKernel {
public:
  /// Build a tree of \p Size nodes (odd) with leaves named from a small
  /// alphabet, so that small subtrees repeat and share a class.
  RefKernel(uint64_t Seed, uint32_t Size) {
    Nodes.reserve(Size | 1);
    hma::Rng R(Seed ^ 0x5245464b45524eULL);
    for (uint32_t I = 0; I != Names; ++I)
      NameHash.emplace(I, R.next() | 1);
    Root = build(R, Size | 1);
  }

  /// One pass; returns the number of classes (to keep the work live).
  size_t run() {
    Hashes.assign(Nodes.size(), H128{});
    hashNode(Root);
    std::vector<std::vector<const Node *>> Classes;
    std::unordered_map<H128, size_t, H128Hasher> Index;
    preorder(Root, [&](const Node *N) {
      auto [It, Inserted] = Index.try_emplace(Hashes[N->Id], Classes.size());
      if (Inserted)
        Classes.emplace_back();
      Classes[It->second].push_back(N);
    });
    return Classes.size();
  }

  /// CPU nanoseconds per node of one pass on the calling thread.
  double nsPerNode() {
    const uint64_t C0 = threadCpuNs();
    Sink += run();
    return double(threadCpuNs() - C0) / double(Nodes.size());
  }

private:
  static constexpr uint32_t Names = 64;

  struct Node {
    uint32_t Id;
    uint32_t Name; // leaves only
    const Node *L = nullptr;
    const Node *R = nullptr;
  };

  struct H128 {
    uint64_t Hi = 0, Lo = 0;
    bool operator==(const H128 &O) const { return Hi == O.Hi && Lo == O.Lo; }
  };
  struct H128Hasher {
    size_t operator()(const H128 &H) const {
      return static_cast<size_t>(H.Hi ^ ((H.Lo << 32) | (H.Lo >> 32)));
    }
  };

  static uint64_t mix(uint64_t X) {
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ULL;
    return X ^ (X >> 33);
  }

  /// Random split of \p Size nodes into a root and two subtrees.
  const Node *build(hma::Rng &R, uint32_t Size) {
    Node *N = &Nodes.emplace_back();
    N->Id = static_cast<uint32_t>(Nodes.size() - 1);
    if (Size <= 1) {
      N->Name = static_cast<uint32_t>(R.below(Names));
      return N;
    }
    const uint32_t Below = (Size - 1) / 2 - 1; // internal nodes under N
    const uint32_t Left = static_cast<uint32_t>(R.below(Below + 1));
    N->L = build(R, 2 * Left + 1);
    N->R = build(R, 2 * (Below - Left) + 1);
    return N;
  }

  H128 hashNode(const Node *N) {
    H128 H;
    if (!N->L) {
      const uint64_t V = NameHash.find(N->Name)->second;
      H = {mix(V), mix(V + 1)};
    } else {
      const H128 A = hashNode(N->L), B = hashNode(N->R);
      H = {mix(A.Hi * 31 + B.Hi), mix(A.Lo ^ (B.Lo * 0x9e3779b97f4a7c15ULL))};
    }
    Hashes[N->Id] = H;
    return H;
  }

  template <typename F> static void preorder(const Node *N, F &&Visit) {
    std::vector<const Node *> Stack{N};
    while (!Stack.empty()) {
      const Node *X = Stack.back();
      Stack.pop_back();
      Visit(X);
      if (X->L) {
        Stack.push_back(X->R);
        Stack.push_back(X->L);
      }
    }
  }

  std::vector<Node> Nodes; // one block, like an arena; never grows past Size
  std::unordered_map<uint32_t, uint64_t> NameHash;
  std::vector<H128> Hashes;
  const Node *Root = nullptr;
  size_t Sink = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REFKERNEL_H
