#include "mds/dirfrag.h"

#include <algorithm>

namespace mdsim {

void DirFragRegistry::fragment(InodeId dir, MdsId home, bool giga,
                               bool by_size, std::uint64_t child_count,
                               double seed_temp, SimTime now,
                               SimTime half_life) {
  GigaDir g;
  g.bitmap = 1;
  g.home = home;
  g.giga = giga;
  g.by_size = by_size;
  g.half_life = half_life;
  const std::size_t slots = std::size_t{1} << kGigaMaxDepth;
  g.counts.assign(slots, 0);
  g.temps.assign(slots, DecayCounter(half_life));
  g.counts[0] = child_count;
  if (seed_temp > 0.0) g.temps[0].hit(now, seed_temp);
  dirs_[dir] = std::move(g);
  ++fragment_events;
  // Giga fragmentation keeps every dentry at home; the legacy one-step
  // hash re-routes the whole directory.
  record_moved(giga ? 0 : child_count);
  bump(dir);
}

std::uint32_t DirFragRegistry::split(InodeId dir, std::uint32_t p,
                                     std::uint64_t parent_count,
                                     std::uint64_t child_count, SimTime now) {
  auto it = dirs_.find(dir);
  if (it == dirs_.end()) return p;
  GigaDir& g = it->second;
  const int d = giga_depth_of(g.bitmap, p);
  if (d >= kGigaMaxDepth) return p;
  const std::uint32_t c = p + (1u << d);
  g.bitmap |= std::uint64_t{1} << c;
  g.counts[p] = parent_count;
  g.counts[c] = child_count;
  // Halve the partition's heat across the pair: the split-away suffix
  // class takes its share of the storm with it.
  const double v = g.temps[p].get(now);
  g.temps[p].reset();
  g.temps[p].hit(now, v * 0.5);
  g.temps[c].reset();
  g.temps[c].hit(now, v * 0.5);
  ++split_events;
  record_moved(child_count);
  bump(dir);
  return c;
}

void DirFragRegistry::merge_pair(InodeId dir, std::uint32_t q,
                                 std::uint32_t c, SimTime now) {
  auto it = dirs_.find(dir);
  if (it == dirs_.end()) return;
  GigaDir& g = it->second;
  if (((g.bitmap >> c) & 1) == 0) return;
  const std::uint64_t moved = g.counts[c];
  g.counts[q] += moved;
  g.counts[c] = 0;
  g.temps[q].hit(now, g.temps[c].get(now));
  g.temps[c].reset();
  g.bitmap &= ~(std::uint64_t{1} << c);
  ++pair_merge_events;
  record_moved(moved);
  bump(dir);
}

void DirFragRegistry::unfragment(InodeId dir, std::uint64_t moved_hint) {
  auto it = dirs_.find(dir);
  if (it == dirs_.end()) return;
  std::uint64_t moved = moved_hint;
  if (it->second.giga) {
    moved = 0;
    for (std::uint64_t n : it->second.counts) moved += n;
    // Everything already merged back to partition 0 sits at home;
    // dropping the entry moves nothing for those dentries.
    if (it->second.bitmap == 1) moved = 0;
  }
  dirs_.erase(it);
  ++merge_events;
  record_moved(moved);
  bump(dir);
}

void DirFragRegistry::note_create(InodeId dir, const std::string& name) {
  if (dirs_.empty()) return;
  auto it = dirs_.find(dir);
  if (it == dirs_.end() || !it->second.giga) return;
  GigaDir& g = it->second;
  ++g.counts[giga_partition(giga_name_hash(dir, name), g.bitmap)];
}

void DirFragRegistry::note_remove(InodeId dir, const std::string& name) {
  if (dirs_.empty()) return;
  auto it = dirs_.find(dir);
  if (it == dirs_.end() || !it->second.giga) return;
  GigaDir& g = it->second;
  std::uint64_t& n =
      g.counts[giga_partition(giga_name_hash(dir, name), g.bitmap)];
  if (n > 0) --n;
}

void DirFragRegistry::note_heat(InodeId dir, const std::string& name,
                                SimTime now) {
  if (dirs_.empty()) return;
  auto it = dirs_.find(dir);
  if (it == dirs_.end() || !it->second.giga) return;
  GigaDir& g = it->second;
  g.temps[giga_partition(giga_name_hash(dir, name), g.bitmap)].hit(now);
}

MdsId DirFragRegistry::dentry_authority(const GigaDir* g,
                                        std::uint64_t name_hash) const {
  MdsId a;
  if (g != nullptr && g->giga) {
    a = giga_node(g->home, giga_partition(name_hash, g->bitmap), num_mds_);
  } else {
    a = static_cast<MdsId>(name_hash % static_cast<std::uint64_t>(num_mds_));
  }
  return probe_alive(a);
}

void DirFragRegistry::set_node_alive(MdsId node, bool alive) {
  alive_[static_cast<std::size_t>(node)] = alive ? 1 : 0;
  if (alive) {
    all_alive_ =
        std::all_of(alive_.begin(), alive_.end(),
                    [](std::uint8_t v) { return v != 0; });
  } else {
    all_alive_ = false;
  }
}

double DirFragRegistry::shard_fraction(InodeId dir, MdsId node) const {
  auto it = dirs_.find(dir);
  if (it == dirs_.end() || !it->second.giga) {
    return 1.0 / static_cast<double>(num_mds_);
  }
  const GigaDir& g = it->second;
  std::uint64_t mine = 0;
  std::uint64_t total = 0;
  std::uint64_t bm = g.bitmap;
  while (bm != 0) {
    const std::uint32_t p = static_cast<std::uint32_t>(std::countr_zero(bm));
    bm &= bm - 1;
    total += g.counts[p];
    if (giga_node(g.home, p, num_mds_) == node) mine += g.counts[p];
  }
  if (total == 0) return 1.0 / static_cast<double>(num_mds_);
  return static_cast<double>(mine) / static_cast<double>(total);
}

double DirFragRegistry::total_temp(InodeId dir, SimTime now) const {
  auto it = dirs_.find(dir);
  if (it == dirs_.end()) return 0.0;
  const GigaDir& g = it->second;
  double sum = 0.0;
  std::uint64_t bm = g.bitmap;
  while (bm != 0) {
    const std::uint32_t p = static_cast<std::uint32_t>(std::countr_zero(bm));
    bm &= bm - 1;
    sum += g.temps[p].get(now);
  }
  return sum;
}

std::vector<InodeId> DirFragRegistry::changes_since(std::uint64_t gen) const {
  std::vector<InodeId> out;
  for (const auto& [ino, g] : last_change_) {
    if (g > gen) out.push_back(ino);
  }
  std::sort(out.begin(), out.end());  // deterministic resync order
  return out;
}

}  // namespace mdsim
