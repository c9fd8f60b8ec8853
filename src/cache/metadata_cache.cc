#include "cache/metadata_cache.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>

namespace mdsim {

namespace {
constexpr std::size_t kMinIndexSize = 64;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = kMinIndexSize;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

MetadataCache::MetadataCache(std::size_t capacity, bool enforce_tree)
    : capacity_(capacity), enforce_tree_(enforce_tree) {
  assert(capacity_ > 0);
  // Room for the entries plus aux-only records at < 2/3 load.
  index_.resize(next_pow2(capacity_ * 2));
}

// --------------------------------------------------------------------------
// Open-addressed index (linear probing, backward-shift deletion)
// --------------------------------------------------------------------------

std::size_t MetadataCache::index_probe(InodeId ino) const {
  const std::size_t mask = index_mask();
  std::size_t pos = hash_ino(ino) & mask;
  while (index_[pos].key != kInvalidInode && index_[pos].key != ino) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

MetadataCache::IndexSlot* MetadataCache::index_find(InodeId ino) {
  IndexSlot& s = index_[index_probe(ino)];
  return s.key == ino ? &s : nullptr;
}

const MetadataCache::IndexSlot* MetadataCache::index_find(InodeId ino) const {
  const IndexSlot& s = index_[index_probe(ino)];
  return s.key == ino ? &s : nullptr;
}

MetadataCache::IndexSlot& MetadataCache::index_ensure(InodeId ino) {
  assert(ino != kInvalidInode);
  // Keep load below ~2/3 so probe runs stay short.
  if ((index_used_ + 1) * 3 > index_.size() * 2) index_grow();
  IndexSlot& s = index_[index_probe(ino)];
  if (s.key != ino) {
    s.key = ino;
    ++index_used_;
  }
  return s;
}

void MetadataCache::index_grow() {
  std::vector<IndexSlot> old;
  old.swap(index_);
  index_.resize(old.size() * 2);
  for (const IndexSlot& s : old) {
    if (s.key == kInvalidInode) continue;
    index_[index_probe(s.key)] = s;
  }
}

void MetadataCache::index_erase_at(std::size_t pos) {
  const std::size_t mask = index_mask();
  std::size_t hole = pos;
  std::size_t next = (hole + 1) & mask;
  // Backward shift: pull displaced records into the hole so every
  // remaining key stays reachable from its ideal slot without tombstones.
  while (index_[next].key != kInvalidInode) {
    const std::size_t ideal = hash_ino(index_[next].key) & mask;
    const std::size_t dist_from_hole = (next - hole) & mask;
    const std::size_t dist_from_ideal = (next - ideal) & mask;
    if (dist_from_ideal >= dist_from_hole) {
      index_[hole] = index_[next];
      hole = next;
    }
    next = (next + 1) & mask;
  }
  index_[hole] = IndexSlot{};
  --index_used_;
}

void MetadataCache::index_gc(InodeId ino) {
  const std::size_t pos = index_probe(ino);
  IndexSlot& s = index_[pos];
  if (s.key != ino) return;
  if (s.entry == kNullSlot && s.aux == kNullSlot) index_erase_at(pos);
}

// --------------------------------------------------------------------------
// Intrusive LRU segments
// --------------------------------------------------------------------------

void MetadataCache::list_push_front(LruList& l, CacheEntry& e) {
  e.lru_prev = kNullSlot;
  e.lru_next = l.head;
  if (l.head != kNullSlot) {
    entries_[l.head].lru_prev = e.self;
  } else {
    l.tail = e.self;
  }
  l.head = e.self;
  ++l.size;
}

void MetadataCache::list_unlink(LruList& l, CacheEntry& e) {
  if (e.lru_prev != kNullSlot) {
    entries_[e.lru_prev].lru_next = e.lru_next;
  } else {
    l.head = e.lru_next;
  }
  if (e.lru_next != kNullSlot) {
    entries_[e.lru_next].lru_prev = e.lru_prev;
  } else {
    l.tail = e.lru_prev;
  }
  e.lru_prev = e.lru_next = kNullSlot;
  --l.size;
}

// --------------------------------------------------------------------------
// Core operations
// --------------------------------------------------------------------------

CacheEntry* MetadataCache::peek(InodeId ino) {
  IndexSlot* s = index_find(ino);
  return (s != nullptr && s->entry != kNullSlot) ? &entries_[s->entry]
                                                 : nullptr;
}

const CacheEntry* MetadataCache::peek(InodeId ino) const {
  const IndexSlot* s = index_find(ino);
  return (s != nullptr && s->entry != kNullSlot) ? &entries_[s->entry]
                                                 : nullptr;
}

CacheEntry* MetadataCache::lookup(InodeId ino, SimTime now, bool count_stats) {
  IndexSlot* s = index_find(ino);
  if (s == nullptr || s->entry == kNullSlot) {
    if (count_stats) ++stats_.misses;
    return nullptr;
  }
  if (count_stats) ++stats_.hits;
  CacheEntry& e = entries_[s->entry];
  e.popularity.hit(now);
  promote(e);
  return &e;
}

void MetadataCache::promote(CacheEntry& e) {
  if (e.in_probation) {
    list_unlink(probation_, e);
    e.in_probation = false;
    list_push_front(main_, e);
  } else if (main_.head != e.self) {
    list_unlink(main_, e);
    list_push_front(main_, e);
  }
}

void MetadataCache::mark_demand(CacheEntry& e) {
  if (!e.prefix) return;
  const bool was_anchor = is_anchor_dir(e);
  e.prefix = false;
  if (e.node->is_dir()) {
    assert(prefix_count_ > 0);
    --prefix_count_;
  }
  if (was_anchor && !is_anchor_dir(e)) --anchored_prefix_dirs_;
}

void MetadataCache::anchor_link(CacheEntry& e) {
  IndexSlot* s = index_find(e.anchor_parent);
  assert(s != nullptr && s->entry != kNullSlot &&
         "tree invariant: parent must be cached before child");
  CacheEntry& p = entries_[s->entry];
  const bool was_anchor = is_anchor_dir(p);
  ++p.cached_children;
  if (!was_anchor && is_anchor_dir(p)) ++anchored_prefix_dirs_;
  e.sib_prev = kNullSlot;
  e.sib_next = p.child_head;
  if (p.child_head != kNullSlot) entries_[p.child_head].sib_prev = e.self;
  p.child_head = e.self;
}

void MetadataCache::anchor_unlink(CacheEntry& e) {
  if (e.sib_next != kNullSlot) entries_[e.sib_next].sib_prev = e.sib_prev;
  if (e.sib_prev != kNullSlot) entries_[e.sib_prev].sib_next = e.sib_next;
  IndexSlot* s = index_find(e.anchor_parent);
  // Removal tolerates a parent that was already torn down (migration
  // export order).
  if (s != nullptr && s->entry != kNullSlot) {
    CacheEntry& p = entries_[s->entry];
    if (p.child_head == e.self) p.child_head = e.sib_next;
    const bool was_anchor = is_anchor_dir(p);
    assert(p.cached_children > 0);
    --p.cached_children;
    if (was_anchor && !is_anchor_dir(p)) --anchored_prefix_dirs_;
  }
  e.sib_prev = e.sib_next = kNullSlot;
}

void MetadataCache::stray_remove(CacheEntry& e) {
  const auto it = std::find(strays_.begin(), strays_.end(), e.self);
  assert(it != strays_.end());
  *it = strays_.back();
  strays_.pop_back();
  e.stray = false;
}

void MetadataCache::unpin(CacheEntry* e) {
  if (e->pins == 0) {
    // A state-machine bug released an entry it never pinned; count it so
    // it surfaces in stats, and trip debug builds immediately.
    ++stats_.pin_underflows;
    assert(false && "MetadataCache::unpin without a matching pin");
    return;
  }
  --e->pins;
}

CacheEntry* MetadataCache::insert(FsNode* node, InsertKind kind,
                                  bool authoritative, SimTime now) {
  assert(node != nullptr);
  const InodeId ino = node->ino();
  if (IndexSlot* found = index_find(ino);
      found != nullptr && found->entry != kNullSlot) {
    // Refresh: an existing entry absorbs the stronger semantics.
    CacheEntry& e = entries_[found->entry];
    if (kind == InsertKind::kDemand) {
      mark_demand(e);
      e.popularity.hit(now);
      promote(e);
    }
    if (authoritative && !e.authoritative) {
      e.authoritative = true;
      assert(replica_count_ > 0);
      --replica_count_;
    }
    e.version = node->inode().version;
    return &e;
  }

  IndexSlot& rec = index_ensure(ino);
  const CacheSlot slot = entries_.alloc();
  CacheEntry& e = entries_[slot];
  e.self = slot;
  e.node = node;
  e.authoritative = authoritative;
  e.prefix = (kind != InsertKind::kDemand);
  e.version = node->inode().version;
  if (kind == InsertKind::kDemand) e.popularity.hit(now);
  if (rec.aux != kNullSlot) e.aux = &aux_slab_[rec.aux];
  rec.entry = slot;
  ++size_;

  if (enforce_tree_ && node->parent() != nullptr) {
    e.anchor_parent = node->parent()->ino();
    anchor_link(e);
  }

  if (kind == InsertKind::kPrefetch) {
    e.in_probation = true;
    list_push_front(probation_, e);
  } else {
    list_push_front(main_, e);
  }

  ++stats_.insertions;
  if (e.prefix && node->is_dir()) ++prefix_count_;
  if (is_anchor_dir(e)) ++anchored_prefix_dirs_;
  if (!authoritative) ++replica_count_;

  // Pin the new entry through capacity enforcement so it survives its own
  // insertion even if everything else is unevictable.
  ++e.pins;
  enforce_capacity();
  --e.pins;
  return &e;
}

bool MetadataCache::evict_one_from(LruList& l) {
  // Scan from the LRU end, skipping unevictable entries (pinned, or
  // directories anchoring cached children).
  for (CacheSlot s = l.tail; s != kNullSlot;) {
    CacheEntry& e = entries_[s];
    if (e.evictable()) {
      remove_entry(e, /*evicted=*/true);
      return true;
    }
    s = e.lru_prev;
  }
  return false;
}

void MetadataCache::enforce_capacity() {
  // An evict callback may insert (and so re-enter); the outer loop below
  // keeps draining, so the nested call can simply bail.
  if (enforcing_) return;
  enforcing_ = true;
  // Probation first, then main; stop when at capacity or nothing can go.
  while (size_ > capacity_) {
    if (evict_one_from(probation_)) continue;
    if (evict_one_from(main_)) continue;
    break;  // everything pinned: overflow
  }
  enforcing_ = false;
}

void MetadataCache::remove_entry(CacheEntry& e, bool evicted) {
  assert(e.cached_children == 0 && "cannot remove an entry with children");
  const InodeId ino = e.node->ino();
  if (enforce_tree_ && e.anchor_parent != kInvalidInode) anchor_unlink(e);
  if (e.stray) stray_remove(e);
  if (is_anchor_dir(e)) --anchored_prefix_dirs_;
  if (e.prefix && e.node->is_dir()) {
    assert(prefix_count_ > 0);
    --prefix_count_;
  }
  if (!e.authoritative) {
    assert(replica_count_ > 0);
    --replica_count_;
  }
  list_unlink(list_of(e), e);

  IndexSlot* rec = index_find(ino);
  assert(rec != nullptr && rec->entry == e.self);
  rec->entry = kNullSlot;
  index_gc(ino);  // drops the record unless a sidecar keeps it alive
  --size_;

  const CacheSlot slot = e.self;
  if (evicted) {
    ++stats_.evictions;
    // The entry is already unlinked (peek misses); the callback may
    // insert or erase other entries.
    if (on_evict_) on_evict_(e);
  }
  // Sidecar teardown for entry-scoped state: "replicated everywhere" is a
  // property of the resident copy and dies with it. Registry, attribute
  // and fetch state deliberately survive eviction (an authority keeps
  // invalidating holders even after shedding its own copy).
  if (e.aux != nullptr) {
    e.aux->replicated_everywhere = false;
    e.aux = nullptr;
    aux_gc(ino);
  }
  entries_.free(slot);
}

bool MetadataCache::erase(InodeId ino) {
  IndexSlot* s = index_find(ino);
  if (s == nullptr || s->entry == kNullSlot) return false;
  // Entries anchoring cached children or referenced by in-flight requests
  // must stay; they drain through normal eviction once released.
  CacheEntry& e = entries_[s->entry];
  if (e.cached_children > 0 || e.pins > 0) return false;
  remove_entry(e, /*evicted=*/false);
  return true;
}

void MetadataCache::note_moved(InodeId ino) {
  if (!enforce_tree_) return;
  CacheEntry* e = peek(ino);
  if (e == nullptr) return;
  const bool moved = e->node->parent()->ino() != e->anchor_parent;
  if (moved && !e->stray) {
    e->stray = true;
    strays_.push_back(e->self);
  } else if (!moved && e->stray) {
    stray_remove(*e);
  }
}

std::size_t MetadataCache::reach_below(const FsNode* dir, Reach reach) {
  assert(enforce_tree_);
  reached_.clear();
  std::size_t visits = 0;
  // Every resident entry anchored under `e` is on its list, and the tree
  // invariant keeps `e` resident while the list is non-empty. A listed
  // entry still hangs under `e` unless it is a stray (renamed away), so
  // the walk need not touch the tree.
  auto take_children = [&](const CacheEntry& e) {
    for (CacheSlot s = e.child_head; s != kNullSlot;
         s = entries_[s].sib_next) {
      ++visits;
      CacheEntry& c = entries_[s];
      if (!c.stray) reached_.push_back(&c);
    }
  };
  if (const CacheEntry* d = peek(dir->ino())) take_children(*d);
  // Strays were renamed under their live parent while cached; each one
  // below `dir` is taken here, once, whichever list it is anchored on.
  for (CacheSlot s : strays_) {
    ++visits;
    CacheEntry& c = entries_[s];
    const FsNode* parent = c.node->parent();
    const bool below = reach == Reach::kChildren
                           ? parent == dir
                           : FsTree::is_ancestor_of(dir, parent);
    if (below) reached_.push_back(&c);
  }
  if (reach == Reach::kSubtree) {
    // Everything anchored under a reached entry is below `dir` too.
    for (std::size_t i = 0; i < reached_.size(); ++i) {
      take_children(*reached_[i]);
    }
  }
  return visits;
}

void MetadataCache::for_each(const std::function<void(CacheEntry&)>& fn) {
  for (const IndexSlot& s : index_) {
    if (s.key != kInvalidInode && s.entry != kNullSlot) fn(entries_[s.entry]);
  }
}

void MetadataCache::sort_in_scan_order(
    std::vector<CacheEntry*>& entries) const {
  if (entries.size() < 2) return;
  std::vector<std::pair<std::size_t, CacheEntry*>> keyed;
  keyed.reserve(entries.size());
  for (CacheEntry* e : entries) {
    assert(index_find(e->node->ino()) != nullptr);
    keyed.emplace_back(index_probe(e->node->ino()), e);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t n = 0;
  for (const auto& k : keyed) {
    if (n == 0 || entries[n - 1] != k.second) entries[n++] = k.second;
  }
  entries.resize(n);
}

// --------------------------------------------------------------------------
// Protocol sidecar (EntryAux)
// --------------------------------------------------------------------------

EntryAux* MetadataCache::aux_peek(InodeId ino) {
  IndexSlot* s = index_find(ino);
  return (s != nullptr && s->aux != kNullSlot) ? &aux_slab_[s->aux] : nullptr;
}

const EntryAux* MetadataCache::aux_peek(InodeId ino) const {
  const IndexSlot* s = index_find(ino);
  return (s != nullptr && s->aux != kNullSlot) ? &aux_slab_[s->aux] : nullptr;
}

EntryAux& MetadataCache::aux_ensure(InodeId ino) {
  IndexSlot& rec = index_ensure(ino);
  if (rec.aux == kNullSlot) {
    rec.aux = aux_slab_.alloc();
    ++aux_count_;
    if (rec.entry != kNullSlot) entries_[rec.entry].aux = &aux_slab_[rec.aux];
  }
  return aux_slab_[rec.aux];
}

void MetadataCache::aux_gc(InodeId ino) {
  const std::size_t pos = index_probe(ino);
  IndexSlot& s = index_[pos];
  if (s.key != ino || s.aux == kNullSlot) return;
  if (!aux_slab_[s.aux].unused()) return;
  const CacheSlot a = s.aux;
  s.aux = kNullSlot;
  if (s.entry != kNullSlot) entries_[s.entry].aux = nullptr;
  aux_slab_.free(a);
  --aux_count_;
  if (s.entry == kNullSlot) index_erase_at(pos);
}

void MetadataCache::for_each_aux(
    const std::function<void(InodeId, EntryAux&)>& fn) {
  // Snapshot the keys: the callback may gc records, which backward-shifts
  // the index under a live iteration.
  std::vector<InodeId> inos;
  inos.reserve(aux_count_);
  for (const IndexSlot& s : index_) {
    if (s.key != kInvalidInode && s.aux != kNullSlot) inos.push_back(s.key);
  }
  for (InodeId ino : inos) {
    if (EntryAux* a = aux_peek(ino)) fn(ino, *a);
  }
}

// --------------------------------------------------------------------------
// Fetch coalescing
// --------------------------------------------------------------------------

bool MetadataCache::add_fetch_waiter(InodeId ino, FetchChannel ch,
                                     FetchWaiter w) {
  EntryAux& a = aux_ensure(ino);
  const int c = static_cast<int>(ch);
  const bool first = !a.fetch_inflight[c];
  if (first) {
    a.fetch_inflight[c] = true;
    ++inflight_count_[c];
  }
  a.fetch_waiters[c].push_back(std::move(w));
  return first;
}

std::vector<MetadataCache::FetchWaiter> MetadataCache::take_fetch_waiters(
    InodeId ino, FetchChannel ch) {
  const int c = static_cast<int>(ch);
  EntryAux* a = aux_peek(ino);
  if (a == nullptr || !a->fetch_inflight[c]) return {};
  a->fetch_inflight[c] = false;
  --inflight_count_[c];
  std::vector<FetchWaiter> waiters = std::move(a->fetch_waiters[c]);
  a->fetch_waiters[c].clear();
  aux_gc(ino);
  return waiters;
}

bool MetadataCache::fetch_inflight(InodeId ino, FetchChannel ch) const {
  const EntryAux* a = aux_peek(ino);
  return a != nullptr && a->fetch_inflight[static_cast<int>(ch)];
}

void MetadataCache::clear_fetch_waiters() {
  for_each_aux([this](InodeId ino, EntryAux& a) {
    for (int c = 0; c < 2; ++c) {
      if (a.fetch_inflight[c]) {
        a.fetch_inflight[c] = false;
        --inflight_count_[c];
      }
      a.fetch_waiters[c].clear();
    }
    aux_gc(ino);
  });
}

// --------------------------------------------------------------------------
// Invariants
// --------------------------------------------------------------------------

std::string MetadataCache::check_invariants() const {
  std::ostringstream err;
  std::size_t prefixes = 0;
  std::size_t replicas = 0;
  std::size_t anchors = 0;
  std::size_t entry_records = 0;
  std::size_t aux_records = 0;
  std::size_t inflight[2] = {0, 0};
  std::unordered_map<InodeId, std::uint32_t> child_counts;

  for (std::size_t pos = 0; pos < index_.size(); ++pos) {
    const IndexSlot& s = index_[pos];
    if (s.key == kInvalidInode) {
      if (s.entry != kNullSlot || s.aux != kNullSlot) {
        err << "index slot " << pos << " empty but holds payload";
        return err.str();
      }
      continue;
    }
    // Every key must be reachable by its own probe sequence.
    if (index_probe(s.key) != pos) {
      err << "index key " << s.key << " unreachable from its ideal slot";
      return err.str();
    }
    if (s.entry == kNullSlot && s.aux == kNullSlot) {
      err << "index record for " << s.key << " holds neither entry nor aux";
      return err.str();
    }
    if (s.entry != kNullSlot) {
      ++entry_records;
      const CacheEntry& e = entries_[s.entry];
      if (e.self != s.entry) {
        err << "slab self-link broken for ino " << s.key;
        return err.str();
      }
      if (e.node->ino() != s.key) {
        err << "entry key mismatch for ino " << s.key;
        return err.str();
      }
      if (e.prefix && e.node->is_dir()) ++prefixes;
      if (!e.authoritative) ++replicas;
      if (is_anchor_dir(e)) ++anchors;
      if (enforce_tree_ && e.anchor_parent != kInvalidInode) {
        const IndexSlot* p = index_find(e.anchor_parent);
        if (p == nullptr || p->entry == kNullSlot) {
          err << "tree invariant violated: anchor parent of "
              << e.node->path() << " not cached";
          return err.str();
        }
        ++child_counts[e.anchor_parent];
      }
      const EntryAux* expect_aux =
          s.aux != kNullSlot ? &aux_slab_[s.aux] : nullptr;
      if (e.aux != expect_aux) {
        err << "entry/aux link drift for ino " << s.key;
        return err.str();
      }
    }
    if (s.aux != kNullSlot) {
      ++aux_records;
      const EntryAux& a = aux_slab_[s.aux];
      if (a.unused()) {
        err << "empty aux record leaked for ino " << s.key;
        return err.str();
      }
      for (int c = 0; c < 2; ++c) {
        if (a.fetch_inflight[c]) ++inflight[c];
        if (!a.fetch_inflight[c] && !a.fetch_waiters[c].empty()) {
          err << "fetch waiters without in-flight fetch on ino " << s.key;
          return err.str();
        }
      }
    }
  }

  if (entry_records != size_) {
    err << "size drift: " << entry_records << " indexed vs " << size_;
    return err.str();
  }
  if (aux_records != aux_count_) {
    err << "aux count drift: " << aux_records << " vs " << aux_count_;
    return err.str();
  }
  if (prefixes != prefix_count_) {
    err << "prefix count drift: " << prefixes << " vs " << prefix_count_;
    return err.str();
  }
  if (replicas != replica_count_) {
    err << "replica count drift: " << replicas << " vs " << replica_count_;
    return err.str();
  }
  if (anchors != anchored_prefix_dirs_) {
    err << "anchored prefix-dir drift: " << anchors << " vs "
        << anchored_prefix_dirs_;
    return err.str();
  }
  for (int c = 0; c < 2; ++c) {
    if (inflight[c] != inflight_count_[c]) {
      err << "inflight fetch count drift on channel " << c;
      return err.str();
    }
  }
  if (enforce_tree_) {
    for (const IndexSlot& s : index_) {
      if (s.key == kInvalidInode || s.entry == kNullSlot) continue;
      const CacheEntry& e = entries_[s.entry];
      const auto it = child_counts.find(s.key);
      const std::uint32_t expect = it != child_counts.end() ? it->second : 0;
      if (e.cached_children != expect) {
        err << "cached_children drift on ino " << s.key << ": "
            << e.cached_children << " vs " << expect;
        return err.str();
      }
      // The child list holds exactly the entries anchored here.
      std::uint32_t listed = 0;
      CacheSlot prev = kNullSlot;
      for (CacheSlot c = e.child_head; c != kNullSlot;) {
        const CacheEntry& k = entries_[c];
        const IndexSlot* rec = index_find(k.node->ino());
        if (rec == nullptr || rec->entry != c) {
          err << "child list of ino " << s.key << " holds a freed entry";
          return err.str();
        }
        if (k.anchor_parent != s.key) {
          err << "child list of ino " << s.key << " holds ino "
              << k.node->ino() << " anchored under " << k.anchor_parent;
          return err.str();
        }
        if (k.sib_prev != prev) {
          err << "child list back-link broken under ino " << s.key;
          return err.str();
        }
        prev = c;
        c = k.sib_next;
        if (++listed > e.cached_children) break;
      }
      if (listed != e.cached_children) {
        err << "child list length drift on ino " << s.key << ": " << listed
            << " vs " << e.cached_children;
        return err.str();
      }
    }
  }

  // Stray list: resident, flagged entries, each once.
  std::size_t flagged = 0;
  for (const IndexSlot& s : index_) {
    if (s.key != kInvalidInode && s.entry != kNullSlot &&
        entries_[s.entry].stray) {
      ++flagged;
    }
  }
  if (flagged != strays_.size()) {
    err << "stray list drift: " << strays_.size() << " listed vs " << flagged
        << " flagged";
    return err.str();
  }
  std::vector<CacheSlot> sorted_strays = strays_;
  std::sort(sorted_strays.begin(), sorted_strays.end());
  if (std::adjacent_find(sorted_strays.begin(), sorted_strays.end()) !=
      sorted_strays.end()) {
    err << "stray list holds an entry twice";
    return err.str();
  }
  for (CacheSlot st : strays_) {
    const CacheEntry& e = entries_[st];
    const IndexSlot* rec = e.node != nullptr ? index_find(e.node->ino())
                                             : nullptr;
    if (rec == nullptr || rec->entry != st || !e.stray) {
      err << "stray list holds a freed entry (slot " << st << ")";
      return err.str();
    }
    if (e.node->parent()->ino() == e.anchor_parent) {
      err << "stray ino " << e.node->ino() << " is back under its anchor";
      return err.str();
    }
  }

  // Intrusive-list audit: forward walks must visit exactly the indexed
  // entries, with consistent back-links and segment flags.
  const LruList* lists[2] = {&main_, &probation_};
  std::size_t listed = 0;
  for (int li = 0; li < 2; ++li) {
    const LruList& l = *lists[li];
    CacheSlot prev = kNullSlot;
    std::size_t count = 0;
    for (CacheSlot s = l.head; s != kNullSlot;) {
      const CacheEntry& e = entries_[s];
      if (e.lru_prev != prev) {
        err << "LRU back-link broken in " << (li == 0 ? "main" : "probation");
        return err.str();
      }
      if (e.in_probation != (li == 1)) {
        err << "segment flag drift for ino " << e.node->ino();
        return err.str();
      }
      const IndexSlot* rec = index_find(e.node->ino());
      if (rec == nullptr || rec->entry != s) {
        err << "LRU lists an unindexed entry (ino " << e.node->ino() << ")";
        return err.str();
      }
      prev = s;
      s = e.lru_next;
      if (++count > size_) {
        err << "LRU cycle in " << (li == 0 ? "main" : "probation");
        return err.str();
      }
    }
    if (prev != l.tail) {
      err << "LRU tail drift in " << (li == 0 ? "main" : "probation");
      return err.str();
    }
    if (count != l.size) {
      err << "LRU size drift in " << (li == 0 ? "main" : "probation");
      return err.str();
    }
    listed += count;
  }
  if (listed != size_) {
    err << "LRU list size mismatch";
    return err.str();
  }
  return {};
}

}  // namespace mdsim
