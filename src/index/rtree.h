// Copyright (c) 2026 The YASK reproduction authors.
// The R-tree core shared by every index in YASK (§3.3: "The algorithms inside
// the engines employ R-tree based indexing techniques").
//
// RTreeT<Summary> is an R-tree built once by STR bulk loading (or adopted
// wholesale from a snapshot) and only read afterwards, templated on a
// node-summary policy:
//
//   * EmptySummary  -> plain R-tree (spatial only),
//   * SetSummary    -> SetR-tree (per-node keyword union + intersection),
//   * KcSummary     -> KcR-tree (per-node keyword->count map + cnt, Fig. 2).
//
// Summaries are computed bottom-up during bulk load.
//
// The node arena is public read-only: the query and why-not engines run their
// own best-first / bound-and-prune traversals directly over nodes.

#ifndef YASK_INDEX_RTREE_H_
#define YASK_INDEX_RTREE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/geometry.h"
#include "src/common/status.h"
#include "src/storage/object_store.h"

namespace yask {

/// Summary policy for a plain R-tree: carries nothing.
struct EmptySummary {
  void Clear() {}
  void AddObject(const SpatialObject&) {}
  void Merge(const EmptySummary&) {}
  bool Equals(const EmptySummary&) const { return true; }
  size_t MemoryBytes() const { return 0; }
};

/// Tuning knobs for the R-tree.
struct RTreeOptions {
  /// Maximum entries per node (fanout). 32 is a good in-memory default.
  size_t max_entries = 32;
  /// Minimum entries per non-root node; Guttman requires <= max/2.
  size_t min_entries = 12;
};

/// An R-tree over the objects of an ObjectStore, parameterised by a node
/// summary policy (see file comment).
///
/// Thread-compatibility: immutable after build (BulkLoad or AdoptArena), so
/// concurrent reads are safe.
template <typename Summary>
class RTreeT {
 public:
  using NodeId = uint32_t;
  static constexpr NodeId kNoNode = static_cast<NodeId>(-1);

  /// A slot in a node: for leaves `id` is an ObjectId, for internal nodes a
  /// child NodeId. `rect` is the child MBR (for leaves, the object point).
  struct Entry {
    Rect rect;
    uint32_t id;
  };

  struct Node {
    bool is_leaf = true;
    NodeId parent = kNoNode;
    Rect rect = Rect::Empty();
    Summary summary;
    std::vector<Entry> entries;
  };

  /// The tree keeps a pointer to the store (summaries need object documents);
  /// the store must outlive the tree and not shrink.
  ///
  /// `prototype` seeds every node's summary before objects are added. Plain
  /// summaries ignore it (default-constructed); context-carrying summaries
  /// (e.g. the IR-tree's, which needs the corpus idf table) use it to inject
  /// that context — their Clear() must preserve it.
  explicit RTreeT(const ObjectStore* store, RTreeOptions options = {},
                  Summary prototype = Summary())
      : store_(store), options_(options), prototype_(std::move(prototype)) {
    assert(store_ != nullptr);
    assert(options_.min_entries >= 1);
    assert(options_.min_entries * 2 <= options_.max_entries);
    root_ = NewNode(/*is_leaf=*/true);
  }

  // --- Construction ---------------------------------------------------------

  /// Builds the tree over every object in the store with STR bulk loading
  /// (sort-tile-recursive): O(n log n), produces near-full nodes.
  void BulkLoad();

  /// Installs a fully-built node arena, replacing the current tree. This is
  /// the snapshot-load hook: the codec reconstructs nodes (rects, parents,
  /// summaries, entries) from disk and hands them over wholesale, so a cold
  /// start skips both the STR sort and the bottom-up summary recomputation.
  ///
  /// `nodes` must be structurally consistent (the codec validates while
  /// decoding; tests cross-check with Validate()). `options` restores the
  /// fanout limits the tree was built with, which Validate() checks.
  void AdoptArena(std::vector<Node> nodes, NodeId root, size_t object_count,
                  RTreeOptions options) {
    assert(root < nodes.size());
    nodes_ = std::move(nodes);
    root_ = root;
    size_ = object_count;
    options_ = options;
  }

  // --- Queries --------------------------------------------------------------

  /// Calls `fn(object_id)` for every indexed object whose point lies in
  /// `range`.
  void RangeQuery(const Rect& range,
                  const std::function<void(ObjectId)>& fn) const;

  /// Generic filtered traversal: `descend(node)` decides whether a subtree is
  /// visited, `accept(object_id)` receives leaf hits. Used by the why-not
  /// modules for half-plane/wedge queries that plain rectangles cannot
  /// express.
  void Traverse(const std::function<bool(const Node&)>& descend,
                const std::function<void(ObjectId)>& accept) const;

  // --- Introspection --------------------------------------------------------

  NodeId root() const { return root_; }
  const Node& node(NodeId id) const { return nodes_[id]; }

  /// Number of objects currently indexed.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Leaf depth (root-only tree has height 1).
  size_t height() const;

  /// Number of nodes.
  size_t node_count() const { return nodes_.size(); }

  const RTreeOptions& options() const { return options_; }
  const ObjectStore& store() const { return *store_; }

  /// Approximate heap footprint (nodes + summaries), for the E3 benchmark.
  size_t MemoryUsageBytes() const;

  /// Deep structural check: MBR containment/equality, fill factors, parent
  /// pointers, uniform leaf depth, summary consistency, object count. Used by
  /// property tests. Returns the first violation found.
  Status Validate() const;

 private:
  NodeId NewNode(bool is_leaf) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
    nodes_[id].is_leaf = is_leaf;
    nodes_[id].summary = prototype_;
    return id;
  }

  /// Recomputes rect + summary of `id` from its entries.
  void RecomputeNode(NodeId id);

  size_t SubtreeObjectCount(NodeId id) const;
  Status ValidateNode(NodeId id, size_t depth, size_t leaf_depth) const;

  const ObjectStore* store_;
  RTreeOptions options_;
  Summary prototype_;
  std::vector<Node> nodes_;
  NodeId root_ = kNoNode;
  size_t size_ = 0;
};

/// Plain spatial R-tree.
using RTree = RTreeT<EmptySummary>;

extern template class RTreeT<EmptySummary>;

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

template <typename Summary>
void RTreeT<Summary>::RecomputeNode(NodeId id) {
  Node& n = nodes_[id];
  n.rect = Rect::Empty();
  n.summary.Clear();
  if (n.is_leaf) {
    for (const Entry& e : n.entries) {
      n.rect.Extend(e.rect);
      n.summary.AddObject(store_->Get(e.id));
    }
  } else {
    for (const Entry& e : n.entries) {
      n.rect.Extend(e.rect);
      n.summary.Merge(nodes_[e.id].summary);
    }
  }
}

template <typename Summary>
void RTreeT<Summary>::BulkLoad() {
  std::vector<ObjectId> ids(store_->size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<ObjectId>(i);
  nodes_.clear();
  size_ = ids.size();

  if (ids.empty()) {
    root_ = NewNode(true);
    return;
  }

  const size_t cap = options_.max_entries;

  // Even packing: ceil(count/cap) nodes whose sizes differ by at most one.
  // With min_entries <= cap/2 this keeps every node of a multi-node level at
  // or above the minimum fill (no underfull slice tails).
  auto node_sizes = [&](size_t count) {
    const size_t n_nodes = (count + cap - 1) / cap;
    std::vector<size_t> sizes(n_nodes, count / n_nodes);
    for (size_t i = 0; i < count % n_nodes; ++i) ++sizes[i];
    return sizes;
  };
  // Reorders items into STR order (x-sorted slices, y-sorted within slices).
  auto str_order = [&](auto& items, auto x_of, auto y_of) {
    std::sort(items.begin(), items.end(), [&](auto a, auto b) {
      if (x_of(a) != x_of(b)) return x_of(a) < x_of(b);
      return a < b;
    });
    const size_t pages = (items.size() + cap - 1) / cap;
    const size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(pages))));
    const size_t len = (items.size() + slices - 1) / slices;
    for (size_t s = 0; s * len < items.size(); ++s) {
      const size_t begin = s * len;
      const size_t end = std::min(begin + len, items.size());
      std::sort(items.begin() + begin, items.begin() + end,
                [&](auto a, auto b) {
                  if (y_of(a) != y_of(b)) return y_of(a) < y_of(b);
                  return a < b;
                });
    }
  };

  // Level 0: STR over object points.
  str_order(
      ids, [&](ObjectId a) { return store_->Get(a).loc.x; },
      [&](ObjectId a) { return store_->Get(a).loc.y; });
  std::vector<NodeId> level;
  {
    size_t pos = 0;
    for (size_t size : node_sizes(ids.size())) {
      const NodeId nid = NewNode(true);
      Node& n = nodes_[nid];
      for (size_t j = pos; j < pos + size; ++j) {
        n.entries.push_back(
            Entry{Rect::FromPoint(store_->Get(ids[j]).loc), ids[j]});
      }
      pos += size;
      RecomputeNode(nid);
      level.push_back(nid);
    }
  }

  // Upper levels: STR over node centres until one node remains.
  while (level.size() > 1) {
    str_order(
        level, [&](NodeId a) { return nodes_[a].rect.Center().x; },
        [&](NodeId a) { return nodes_[a].rect.Center().y; });
    std::vector<NodeId> next;
    size_t pos = 0;
    for (size_t size : node_sizes(level.size())) {
      const NodeId nid = NewNode(false);
      Node& n = nodes_[nid];
      for (size_t j = pos; j < pos + size; ++j) {
        n.entries.push_back(Entry{nodes_[level[j]].rect, level[j]});
        nodes_[level[j]].parent = nid;
      }
      pos += size;
      RecomputeNode(nid);
      next.push_back(nid);
    }
    level = std::move(next);
  }
  root_ = level.front();
  nodes_[root_].parent = kNoNode;
}

template <typename Summary>
size_t RTreeT<Summary>::SubtreeObjectCount(NodeId id) const {
  const Node& n = nodes_[id];
  if (n.is_leaf) return n.entries.size();
  size_t total = 0;
  for (const Entry& e : n.entries) total += SubtreeObjectCount(e.id);
  return total;
}

template <typename Summary>
void RTreeT<Summary>::RangeQuery(
    const Rect& range, const std::function<void(ObjectId)>& fn) const {
  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    const NodeId nid = stack.back();
    stack.pop_back();
    const Node& n = nodes_[nid];
    if (n.is_leaf) {
      for (const Entry& e : n.entries) {
        if (range.Contains(Point{e.rect.min_x, e.rect.min_y})) fn(e.id);
      }
    } else {
      for (const Entry& e : n.entries) {
        if (range.Intersects(e.rect)) stack.push_back(e.id);
      }
    }
  }
}

template <typename Summary>
void RTreeT<Summary>::Traverse(
    const std::function<bool(const Node&)>& descend,
    const std::function<void(ObjectId)>& accept) const {
  std::vector<NodeId> stack;
  if (descend(nodes_[root_])) stack.push_back(root_);
  while (!stack.empty()) {
    const NodeId nid = stack.back();
    stack.pop_back();
    const Node& n = nodes_[nid];
    if (n.is_leaf) {
      for (const Entry& e : n.entries) accept(e.id);
    } else {
      for (const Entry& e : n.entries) {
        if (descend(nodes_[e.id])) stack.push_back(e.id);
      }
    }
  }
}

template <typename Summary>
size_t RTreeT<Summary>::height() const {
  size_t h = 1;
  NodeId cur = root_;
  while (!nodes_[cur].is_leaf) {
    cur = nodes_[cur].entries[0].id;
    ++h;
  }
  return h;
}

template <typename Summary>
size_t RTreeT<Summary>::MemoryUsageBytes() const {
  size_t total = nodes_.capacity() * sizeof(Node);
  for (const Node& n : nodes_) {
    total += n.entries.capacity() * sizeof(Entry);
    total += n.summary.MemoryBytes();
  }
  return total;
}

template <typename Summary>
Status RTreeT<Summary>::ValidateNode(NodeId id, size_t depth,
                                     size_t leaf_depth) const {
  const Node& n = nodes_[id];
  if (n.is_leaf && depth != leaf_depth) {
    return Status::Internal("non-uniform leaf depth at node " +
                            std::to_string(id));
  }
  if (id != root_ && n.entries.size() < options_.min_entries) {
    return Status::Internal("underfull node " + std::to_string(id));
  }
  if (n.entries.size() > options_.max_entries) {
    return Status::Internal("overfull node " + std::to_string(id));
  }
  // Rect and summary must equal the recomputation from entries.
  Rect rect = Rect::Empty();
  Summary summary = prototype_;
  summary.Clear();
  for (const Entry& e : n.entries) {
    rect.Extend(e.rect);
    if (n.is_leaf) {
      if (e.rect != Rect::FromPoint(store_->Get(e.id).loc)) {
        return Status::Internal("stale leaf entry rect in node " +
                                std::to_string(id));
      }
      summary.AddObject(store_->Get(e.id));
    } else {
      if (e.rect != nodes_[e.id].rect) {
        return Status::Internal("stale child rect in node " +
                                std::to_string(id));
      }
      if (nodes_[e.id].parent != id) {
        return Status::Internal("bad parent pointer under node " +
                                std::to_string(id));
      }
      summary.Merge(nodes_[e.id].summary);
    }
  }
  if (!n.entries.empty() && !(rect == n.rect)) {
    return Status::Internal("stale node rect at node " + std::to_string(id));
  }
  if (!summary.Equals(n.summary)) {
    return Status::Internal("inconsistent summary at node " +
                            std::to_string(id));
  }
  if (!n.is_leaf) {
    for (const Entry& e : n.entries) {
      Status s = ValidateNode(e.id, depth + 1, leaf_depth);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

template <typename Summary>
Status RTreeT<Summary>::Validate() const {
  if (SubtreeObjectCount(root_) != size_) {
    return Status::Internal("object count mismatch");
  }
  if (nodes_[root_].parent != kNoNode) {
    return Status::Internal("root has a parent");
  }
  return ValidateNode(root_, 1, height());
}

}  // namespace yask

#endif  // YASK_INDEX_RTREE_H_
