#include "storage/btree.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace mdsim {

struct DirBTree::Node {
  bool leaf = true;
  std::vector<std::string> keys;
  // Internal nodes: children.size() == keys.size() + 1.
  std::vector<Node*> children;
  // Leaves only:
  std::vector<DirRecord> values;
  Node* next = nullptr;  // leaf chain
  Node* prev = nullptr;
};

DirBTree::DirBTree(std::uint32_t order) : order_(order) {
  assert(order_ >= 4 && "B+tree order must be at least 4");
  root_ = new_node(/*leaf=*/true);
}

DirBTree::~DirBTree() { free_subtree(root_); }

DirBTree::Node* DirBTree::new_node(bool leaf) {
  Node* n = new Node;
  n->leaf = leaf;
  ++node_count_;
  return n;
}

void DirBTree::free_node(Node* n) {
  delete n;
  --node_count_;
}

void DirBTree::free_subtree(Node* n) {
  if (!n->leaf) {
    for (Node* c : n->children) free_subtree(c);
  }
  free_node(n);
}

void DirBTree::touch_write(Node* /*n*/, BTreeIoCost* cost) {
  if (cost != nullptr) ++cost->nodes_written;
}

std::uint32_t DirBTree::height() const {
  std::uint32_t h = 1;
  for (const Node* n = root_; !n->leaf; n = n->children.front()) ++h;
  return h;
}

// --- find -------------------------------------------------------------

const DirRecord* DirBTree::find(const std::string& key,
                                BTreeIoCost* cost) const {
  const Node* n = root_;
  while (true) {
    if (cost != nullptr) ++cost->nodes_read;
    if (n->leaf) break;
    // children[i] holds keys < keys[i]; child[i+1] holds keys >= keys[i].
    const auto it = std::upper_bound(n->keys.begin(), n->keys.end(), key);
    n = n->children[static_cast<std::size_t>(it - n->keys.begin())];
  }
  const auto it = std::lower_bound(n->keys.begin(), n->keys.end(), key);
  if (it == n->keys.end() || *it != key) return nullptr;
  return &n->values[static_cast<std::size_t>(it - n->keys.begin())];
}

// --- insert -----------------------------------------------------------

void DirBTree::split_child(Node* parent, std::size_t idx, BTreeIoCost* cost) {
  Node* child = parent->children[idx];
  Node* right = new_node(child->leaf);
  const std::size_t mid = child->keys.size() / 2;

  std::string sep;
  if (child->leaf) {
    sep = child->keys[mid];
    right->keys.assign(child->keys.begin() + static_cast<std::ptrdiff_t>(mid),
                       child->keys.end());
    right->values.assign(
        child->values.begin() + static_cast<std::ptrdiff_t>(mid),
        child->values.end());
    child->keys.resize(mid);
    child->values.resize(mid);
    right->next = child->next;
    right->prev = child;
    if (child->next != nullptr) child->next->prev = right;
    child->next = right;
  } else {
    sep = child->keys[mid];
    right->keys.assign(
        child->keys.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
        child->keys.end());
    right->children.assign(
        child->children.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
        child->children.end());
    child->keys.resize(mid);
    child->children.resize(mid + 1);
  }

  parent->keys.insert(parent->keys.begin() + static_cast<std::ptrdiff_t>(idx),
                      sep);
  parent->children.insert(
      parent->children.begin() + static_cast<std::ptrdiff_t>(idx) + 1, right);
  touch_write(child, cost);
  touch_write(right, cost);
  touch_write(parent, cost);
}

bool DirBTree::insert(const std::string& key, const DirRecord& rec,
                      BTreeIoCost* cost) {
  // Grow the root if full.
  if (root_->keys.size() >= order_) {
    Node* new_root = new_node(/*leaf=*/false);
    new_root->children.push_back(root_);
    root_ = new_root;
    split_child(new_root, 0, cost);
  }
  Node* n = root_;
  while (true) {
    if (cost != nullptr) ++cost->nodes_read;
    if (n->leaf) break;
    auto it = std::upper_bound(n->keys.begin(), n->keys.end(), key);
    std::size_t ci = static_cast<std::size_t>(it - n->keys.begin());
    if (n->children[ci]->keys.size() >= order_) {
      split_child(n, ci, cost);
      // The separator moved up; re-decide which side to descend.
      if (key >= n->keys[ci]) ++ci;
    }
    n = n->children[ci];
  }
  auto it = std::lower_bound(n->keys.begin(), n->keys.end(), key);
  const std::size_t pos = static_cast<std::size_t>(it - n->keys.begin());
  if (it != n->keys.end() && *it == key) {
    n->values[pos] = rec;
    touch_write(n, cost);
    return false;
  }
  n->keys.insert(it, key);
  n->values.insert(n->values.begin() + static_cast<std::ptrdiff_t>(pos), rec);
  touch_write(n, cost);
  ++size_;
  return true;
}

// --- erase ------------------------------------------------------------

void DirBTree::rebalance_child(Node* parent, std::size_t idx,
                               BTreeIoCost* cost) {
  const std::size_t min_keys = (order_ - 1) / 2;
  Node* child = parent->children[idx];
  Node* left = idx > 0 ? parent->children[idx - 1] : nullptr;
  Node* right =
      idx + 1 < parent->children.size() ? parent->children[idx + 1] : nullptr;

  if (left != nullptr && left->keys.size() > min_keys) {
    // Borrow from the left sibling.
    if (child->leaf) {
      child->keys.insert(child->keys.begin(), left->keys.back());
      child->values.insert(child->values.begin(), left->values.back());
      left->keys.pop_back();
      left->values.pop_back();
      parent->keys[idx - 1] = child->keys.front();
    } else {
      child->keys.insert(child->keys.begin(), parent->keys[idx - 1]);
      parent->keys[idx - 1] = left->keys.back();
      left->keys.pop_back();
      child->children.insert(child->children.begin(), left->children.back());
      left->children.pop_back();
    }
    touch_write(left, cost);
    touch_write(child, cost);
    touch_write(parent, cost);
    return;
  }
  if (right != nullptr && right->keys.size() > min_keys) {
    // Borrow from the right sibling.
    if (child->leaf) {
      child->keys.push_back(right->keys.front());
      child->values.push_back(right->values.front());
      right->keys.erase(right->keys.begin());
      right->values.erase(right->values.begin());
      parent->keys[idx] = right->keys.front();
    } else {
      child->keys.push_back(parent->keys[idx]);
      parent->keys[idx] = right->keys.front();
      right->keys.erase(right->keys.begin());
      child->children.push_back(right->children.front());
      right->children.erase(right->children.begin());
    }
    touch_write(right, cost);
    touch_write(child, cost);
    touch_write(parent, cost);
    return;
  }

  // Merge with a sibling.
  std::size_t li = left != nullptr ? idx - 1 : idx;  // merge children[li], [li+1]
  Node* a = parent->children[li];
  Node* b = parent->children[li + 1];
  if (a->leaf) {
    a->keys.insert(a->keys.end(), b->keys.begin(), b->keys.end());
    a->values.insert(a->values.end(), b->values.begin(), b->values.end());
    a->next = b->next;
    if (b->next != nullptr) b->next->prev = a;
  } else {
    a->keys.push_back(parent->keys[li]);
    a->keys.insert(a->keys.end(), b->keys.begin(), b->keys.end());
    a->children.insert(a->children.end(), b->children.begin(),
                       b->children.end());
  }
  parent->keys.erase(parent->keys.begin() + static_cast<std::ptrdiff_t>(li));
  parent->children.erase(parent->children.begin() +
                         static_cast<std::ptrdiff_t>(li) + 1);
  free_node(b);
  touch_write(a, cost);
  touch_write(parent, cost);
}

bool DirBTree::erase(const std::string& key, BTreeIoCost* cost) {
  const std::size_t min_keys = (order_ - 1) / 2;
  Node* n = root_;
  while (true) {
    if (cost != nullptr) ++cost->nodes_read;
    if (n->leaf) break;
    auto it = std::upper_bound(n->keys.begin(), n->keys.end(), key);
    std::size_t ci = static_cast<std::size_t>(it - n->keys.begin());
    // Preemptively top up underfull children on the way down so the leaf
    // deletion never needs to walk back up.
    if (n->children[ci]->keys.size() <= min_keys) {
      rebalance_child(n, ci, cost);
      // Rebalancing may have merged/shifted; recompute the child index.
      auto it2 = std::upper_bound(n->keys.begin(), n->keys.end(), key);
      ci = static_cast<std::size_t>(it2 - n->keys.begin());
    }
    n = n->children[ci];
  }
  auto it = std::lower_bound(n->keys.begin(), n->keys.end(), key);
  if (it == n->keys.end() || *it != key) return false;
  const std::size_t pos = static_cast<std::size_t>(it - n->keys.begin());
  n->keys.erase(it);
  n->values.erase(n->values.begin() + static_cast<std::ptrdiff_t>(pos));
  touch_write(n, cost);
  --size_;

  // Shrink the root if it became a pass-through.
  while (!root_->leaf && root_->keys.empty()) {
    Node* old = root_;
    root_ = root_->children.front();
    free_node(old);
  }
  return true;
}

// --- scan ---------------------------------------------------------------

void DirBTree::scan(
    const std::function<void(const std::string&, const DirRecord&)>& fn,
    BTreeIoCost* cost) const {
  // Walk down the left spine, then the leaf chain.
  const Node* n = root_;
  while (!n->leaf) {
    if (cost != nullptr) ++cost->nodes_read;
    n = n->children.front();
  }
  for (; n != nullptr; n = n->next) {
    if (cost != nullptr) ++cost->nodes_read;
    for (std::size_t i = 0; i < n->keys.size(); ++i) {
      fn(n->keys[i], n->values[i]);
    }
  }
}

// --- invariants -----------------------------------------------------------

std::string DirBTree::check_invariants() const {
  std::ostringstream err;
  const std::size_t min_keys = (order_ - 1) / 2;
  std::size_t counted = 0;
  int leaf_depth = -1;
  const Node* first_leaf = nullptr;

  std::function<bool(const Node*, int, const std::string*,
                     const std::string*)>
      walk = [&](const Node* n, int depth, const std::string* lo,
                 const std::string* hi) -> bool {
    if (n->keys.size() > order_) {
      err << "node overfull: " << n->keys.size() << " > " << order_;
      return false;
    }
    if (n != root_ && n->keys.size() < min_keys) {
      err << "node underfull: " << n->keys.size() << " < " << min_keys;
      return false;
    }
    if (!std::is_sorted(n->keys.begin(), n->keys.end())) {
      err << "keys not sorted";
      return false;
    }
    for (const auto& k : n->keys) {
      if (lo != nullptr && k < *lo) {
        err << "key below subtree bound";
        return false;
      }
      if (hi != nullptr && k >= *hi) {
        err << "key above subtree bound";
        return false;
      }
    }
    if (n->leaf) {
      if (leaf_depth == -1) {
        leaf_depth = depth;
        first_leaf = n;
      } else if (leaf_depth != depth) {
        err << "leaves at different depths";
        return false;
      }
      if (n->keys.size() != n->values.size()) {
        err << "leaf key/value count mismatch";
        return false;
      }
      counted += n->keys.size();
      return true;
    }
    if (n->children.size() != n->keys.size() + 1) {
      err << "internal child count mismatch";
      return false;
    }
    for (std::size_t i = 0; i < n->children.size(); ++i) {
      const std::string* clo = i == 0 ? lo : &n->keys[i - 1];
      const std::string* chi = i == n->keys.size() ? hi : &n->keys[i];
      if (!walk(n->children[i], depth + 1, clo, chi)) return false;
    }
    return true;
  };
  if (!walk(root_, 0, nullptr, nullptr)) return err.str();
  if (counted != size_) {
    err << "size mismatch: counted " << counted << " stored " << size_;
    return err.str();
  }
  // Leaf chain must visit every leaf exactly once, in key order.
  std::size_t chained = 0;
  std::string prev_key;
  bool have_prev = false;
  for (const Node* n = first_leaf; n != nullptr; n = n->next) {
    for (const auto& k : n->keys) {
      if (have_prev && !(prev_key < k)) {
        err << "leaf chain out of order";
        return err.str();
      }
      prev_key = k;
      have_prev = true;
      ++chained;
    }
    if (n->next != nullptr && n->next->prev != n) {
      err << "leaf chain prev/next mismatch";
      return err.str();
    }
  }
  if (chained != size_) {
    err << "leaf chain missed entries: " << chained << " vs " << size_;
    return err.str();
  }
  return {};
}

}  // namespace mdsim
