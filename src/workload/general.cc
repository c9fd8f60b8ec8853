#include "workload/general.h"

#include <cassert>

namespace mdsim {

namespace {
/// Shared scratch for the candidate-collection passes below (drift,
/// rmdir, rename). These run on every generated op; a per-call vector
/// would be one heap round-trip each. Thread-local: each shard worker
/// drives its own workload instance.
std::vector<FsNode*>& scratch_nodes() {
  static thread_local std::vector<FsNode*> v;
  v.clear();
  return v;
}
}  // namespace

GeneralWorkload::GeneralWorkload(FsTree& tree, std::vector<FsNode*> home_roots,
                                 OpMix mix, GeneralWorkloadParams params)
    : tree_(tree),
      homes_(std::move(home_roots)),
      mix_(std::move(mix)),
      params_(params) {
  assert(!homes_.empty());
  home_zipf_ = std::make_unique<ZipfSampler>(homes_.size(), kHomeZipfSkew);
}

GeneralWorkload::ClientState& GeneralWorkload::state(ClientId c) {
  if (static_cast<std::size_t>(c) >= clients_.size()) {
    clients_.resize(static_cast<std::size_t>(c) + 1);
  }
  return clients_[static_cast<std::size_t>(c)];
}

const FsNode* GeneralWorkload::region_of(ClientId c) const {
  if (static_cast<std::size_t>(c) >= clients_.size()) return nullptr;
  return clients_[static_cast<std::size_t>(c)].region;
}

FsNode* GeneralWorkload::random_home(ClientId c, Rng& rng) {
  // Mostly the client's own home (permissions always allow it); otherwise
  // a Zipf-popular home — a few homes are cluster-wide hot.
  if (rng.uniform_double() < kPOwnHome) {
    ClientState& s = state(c);
    if (s.home_override != nullptr && tree_.alive(s.home_override)) {
      return s.home_override;
    }
    return homes_[static_cast<std::size_t>(c) % homes_.size()];
  }
  return homes_[(*home_zipf_)(rng)];
}

FsNode* GeneralWorkload::random_file_in(FsNode* dir, Rng& rng) {
  if (dir->children_list().empty()) return nullptr;
  // Reservoir-pick a file child; directories are skipped.
  FsNode* pick = nullptr;
  std::uint64_t seen = 0;
  for (FsNode* c : dir->children_list()) {
    if (c->is_dir()) continue;
    ++seen;
    if (rng.uniform(seen) == 0) pick = c;
  }
  return pick;
}

void GeneralWorkload::maybe_drift(ClientId c, ClientState& s, Rng& rng) {
  const double r = rng.uniform_double();
  const GeneralWorkloadParams& P = params_;
  if (r < P.p_stay) return;
  if (r < P.p_stay + kPMoveChild) {
    // Descend into a random subdirectory.
    std::vector<FsNode*>& dirs = scratch_nodes();
    for (FsNode* c : s.region->children_list()) {
      if (c->is_dir()) dirs.push_back(c);
    }
    if (!dirs.empty()) s.region = dirs[rng.uniform(dirs.size())];
    return;
  }
  if (r < P.p_stay + kPMoveChild + kPMoveParent) {
    if (s.region->parent() != nullptr && s.region->depth() > 1) {
      s.region = s.region->parent();
    }
    return;
  }
  if (r < P.p_stay + kPMoveChild + kPMoveParent + kPMoveSibling) {
    FsNode* parent = s.region->parent();
    if (parent != nullptr) {
      std::vector<FsNode*>& sibs = scratch_nodes();
      for (FsNode* c : parent->children_list()) {
        if (c->is_dir() && c != s.region) sibs.push_back(c);
      }
      if (!sibs.empty()) s.region = sibs[rng.uniform(sibs.size())];
    }
    return;
  }
  // Jump: fresh home directory (possibly someone else's — Zipf-popular).
  s.region = random_home(c, rng);
}

void GeneralWorkload::clamp_to_override(ClientState& s, Rng& rng) {
  // Shifted clients never wander out of their destination subtree: the
  // figure-5 scenario keeps the migrated load *on* the hot node's
  // territory until the balancer reacts. Re-entry lands on a random
  // subdirectory so the new activity forms a tree, not one flat dir.
  if (s.home_override == nullptr) return;
  if (!tree_.alive(s.home_override)) {
    s.home_override = nullptr;
    return;
  }
  if (!FsTree::is_ancestor_of(s.home_override, s.region)) {
    FsNode* dest = s.home_override;
    std::vector<FsNode*>& subdirs = scratch_nodes();
    for (FsNode* c : dest->children_list()) {
      if (c->is_dir()) subdirs.push_back(c);
    }
    s.region = subdirs.empty() ? dest : subdirs[rng.uniform(subdirs.size())];
  }
}

void GeneralWorkload::maybe_shift(ClientId c, ClientState& s, SimTime now,
                                  Rng& rng) {
  if (!shift_.has_value() || s.shifted) return;
  if (now < shift_->at) return;
  // Deterministic pseudo-random membership with the right density.
  const std::uint64_t h =
      (static_cast<std::uint64_t>(c) + 1) * 0x9e3779b97f4a7c15ULL;
  const bool member =
      static_cast<double>(h >> 40) / static_cast<double>(1ULL << 24) <
      shift_->fraction;
  s.shifted = true;  // decision made either way (no re-checks)
  if (!member || shift_->destinations.empty()) return;
  s.region =
      shift_->destinations[rng.uniform(shift_->destinations.size())];
  s.home_override = s.region;  // shifted clients stay in the new region
}

SimTime GeneralWorkload::next(ClientId c, SimTime now, Rng& rng,
                              Operation* out) {
  ClientState& s = state(c);
  if (!s.started) {
    s.started = true;
    s.region = random_home(c, rng);
    // Clients with out-of-range homes still work (uid mismatch only
    // matters for private dirs).
  }
  // Region may have been deleted under us.
  if (s.region == nullptr || !tree_.alive(s.region)) {
    s.region = random_home(c, rng);
  }
  maybe_shift(c, s, now, rng);

  // Pending sequences first: close-after-open, stats-after-readdir.
  if (s.opened != nullptr) {
    FsNode* f = s.opened;
    s.opened = nullptr;
    if (tree_.alive(f)) {
      out->op = OpType::kClose;
      out->target = f;
      out->secondary = nullptr;
      out->name.clear();
      return static_cast<SimTime>(
          rng.exponential(static_cast<double>(kMeanSeqThink)));
    }
  }
  while (s.stat_head < s.stat_queue.size()) {
    FsNode* f = s.stat_queue[s.stat_head++];
    if (s.stat_head >= s.stat_queue.size()) {
      s.stat_queue.clear();
      s.stat_head = 0;
    }
    if (!tree_.alive(f)) continue;
    out->op = OpType::kStat;
    out->target = f;
    out->secondary = nullptr;
    out->name.clear();
    return static_cast<SimTime>(
        rng.exponential(static_cast<double>(kMeanSeqThink)));
  }

  maybe_drift(c, s, rng);
  clamp_to_override(s, rng);
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (generate(c, s, rng, out)) {
      SimTime think = static_cast<SimTime>(
          rng.exponential(static_cast<double>(params_.mean_think)));
      if (!s.started) think += rng.uniform(kStartJitter);
      return think;
    }
  }
  // Could not produce an op here (degenerate region): hop and retry later.
  s.region = random_home(c, rng);
  return params_.mean_think;
}

bool GeneralWorkload::generate(ClientId c, ClientState& s, Rng& rng,
                               Operation* out) {
  // Clients that shifted into a destination subtree use the shift mix
  // (create-heavy by default); everyone else the base mix.
  bool in_shift_region = false;
  if (shift_.has_value() && s.shifted && shift_->mix.has_value()) {
    for (FsNode* d : shift_->destinations) {
      if (FsTree::is_ancestor_of(d, s.region)) {
        in_shift_region = true;
        break;
      }
    }
  }
  const OpMix& use = in_shift_region ? *shift_->mix : mix_;

  const OpType op = use.sample(rng);
  out->op = op;
  out->secondary = nullptr;
  out->name.clear();

  FsNode* region = s.region;
  switch (op) {
    case OpType::kStat:
    case OpType::kSetattr:
    case OpType::kChmod: {
      FsNode* f = random_file_in(region, rng);
      if (f == nullptr) {
        // Fall back to stat'ing the directory itself.
        out->op = OpType::kStat;
        out->target = region;
        return true;
      }
      out->target = f;
      return true;
    }
    case OpType::kOpen: {
      FsNode* f = random_file_in(region, rng);
      if (f == nullptr) return false;
      out->target = f;
      s.opened = f;  // close follows
      return true;
    }
    case OpType::kClose: {
      // Un-paired close: treat as open (the pair is modelled via kOpen).
      FsNode* f = random_file_in(region, rng);
      if (f == nullptr) return false;
      out->op = OpType::kStat;
      out->target = f;
      return true;
    }
    case OpType::kReaddir: {
      out->target = region;
      // Queue the characteristic stat burst over directory entries.
      int quota = params_.readdir_stat_burst;
      for (FsNode* child : region->children_list()) {
        if (quota-- <= 0) break;
        s.stat_queue.push_back(child);
      }
      return true;
    }
    case OpType::kCreate:
    case OpType::kMkdir: {
      out->target = region;
      out->name = (op == OpType::kMkdir ? "d" : "f") + std::to_string(c) +
                  "_" + std::to_string(s.name_counter++);
      return true;
    }
    case OpType::kUnlink: {
      FsNode* f = random_file_in(region, rng);
      if (f == nullptr) return false;
      out->target = f;
      return true;
    }
    case OpType::kRmdir: {
      std::vector<FsNode*>& empties = scratch_nodes();
      for (FsNode* child : region->children_list()) {
        if (child->is_dir() && child->child_count() == 0) {
          empties.push_back(child);
        }
      }
      if (empties.empty()) return false;
      out->target = empties[rng.uniform(empties.size())];
      return true;
    }
    case OpType::kRename: {
      FsNode* f = random_file_in(region, rng);
      if (f == nullptr) return false;
      // Mostly rename within the directory; occasionally move a whole
      // subdirectory (the expensive case for hashed strategies).
      if (rng.bernoulli(0.15)) {
        std::vector<FsNode*>& dirs = scratch_nodes();
        for (FsNode* child : region->children_list()) {
          if (child->is_dir()) dirs.push_back(child);
        }
        if (dirs.size() >= 2) {
          out->target = dirs[0];
          out->secondary = dirs[1];
          out->name = "mv" + std::to_string(s.name_counter++);
          return true;
        }
      }
      out->target = f;
      out->secondary = region;
      out->name = "r" + std::to_string(c) + "_" +
                  std::to_string(s.name_counter++);
      return true;
    }
    case OpType::kLink: {
      FsNode* f = random_file_in(region, rng);
      if (f == nullptr) return false;
      out->op = OpType::kLink;
      out->target = region;      // dir receiving the new dentry
      out->secondary = f;        // linked file
      out->name = "ln" + std::to_string(s.name_counter++);
      return true;
    }
  }
  return false;
}

}  // namespace mdsim
