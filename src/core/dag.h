// Directed acyclic graph utilities shared by the conflict, installation,
// state, and write graphs.
//
// Terminology follows the paper (§2.1): the *predecessors* of a node n
// are all nodes m with a path m -> n; a *prefix* is a subgraph induced by
// a predecessor-closed set of nodes.

#ifndef REDO_CORE_DAG_H_
#define REDO_CORE_DAG_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/bitset.h"
#include "util/rng.h"

namespace redo::core {

/// A DAG over nodes {0 .. size-1} with deduplicated edges.
///
/// Edge insertion does not enforce acyclicity (callers constructing
/// graphs from execution orders are acyclic by construction; the write
/// graph checks acyclicity explicitly via IsAcyclic).
class Dag {
 public:
  Dag() = default;
  explicit Dag(size_t size);

  size_t size() const { return out_.size(); }

  /// Adds edge u -> v (idempotent). Self-edges are rejected.
  void AddEdge(uint32_t u, uint32_t v);

  /// Direct-successor / direct-predecessor adjacency.
  const std::vector<uint32_t>& OutEdges(uint32_t u) const { return out_[u]; }
  const std::vector<uint32_t>& InEdges(uint32_t v) const { return in_[v]; }

  bool HasEdge(uint32_t u, uint32_t v) const;

  /// Total number of edges.
  size_t NumEdges() const;

  /// True if there is a path u -> v (u != v; a node does not reach
  /// itself). O(E) DFS; use Ancestors() for repeated queries.
  bool HasPath(uint32_t u, uint32_t v) const;

  /// True if the graph is acyclic.
  bool IsAcyclic() const;

  /// The paper's "predecessors of n": every m with a path m -> n
  /// (excluding n). One bitset per node, computed in one topological
  /// sweep. Requires acyclicity.
  std::vector<Bitset> Ancestors() const;

  /// Transitive successors of each node (excluding the node).
  std::vector<Bitset> Descendants() const;

  /// True if `nodes` is predecessor-closed (equivalently: closed under
  /// direct predecessors), i.e. induces a prefix of the graph.
  bool IsPrefix(const Bitset& nodes) const;

  /// Smallest prefix containing `nodes`.
  Bitset PrefixClosure(const Bitset& nodes) const;

  /// A deterministic topological order (smallest-id-first among ready
  /// nodes). Requires acyclicity.
  std::vector<uint32_t> TopologicalOrder() const;

  /// A uniformly-random-ish topological order (random choice among ready
  /// nodes at each step). Requires acyclicity.
  std::vector<uint32_t> RandomTopologicalOrder(Rng& rng) const;

  /// Enumerates topological orders, invoking `visit` for each, stopping
  /// after `limit` orders. Returns the number visited. Exponential; use
  /// only on small graphs (tests).
  size_t ForEachTopologicalOrder(
      size_t limit,
      const std::function<void(const std::vector<uint32_t>&)>& visit) const;

  /// Enumerates prefixes (predecessor-closed subsets, including the empty
  /// set and the full set), invoking `visit` for each, stopping after
  /// `limit`. Returns the number visited. Requires size() <= 64.
  size_t ForEachPrefix(size_t limit,
                       const std::function<void(const Bitset&)>& visit) const;

  /// Counts prefixes exactly, up to `cap` (returns cap if there are at
  /// least cap). Requires size() <= 64. Memoized DFS over frontiers.
  uint64_t CountPrefixes(uint64_t cap) const;

 private:
  std::vector<std::vector<uint32_t>> out_;
  std::vector<std::vector<uint32_t>> in_;
};

}  // namespace redo::core

#endif  // REDO_CORE_DAG_H_
