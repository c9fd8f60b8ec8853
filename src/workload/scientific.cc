#include "workload/scientific.h"

#include <cassert>

namespace mdsim {

ScientificWorkload::ScientificWorkload(FsTree& tree,
                                       std::vector<FsNode*> run_dirs,
                                       ScientificWorkloadParams params)
    : tree_(tree), run_dirs_(std::move(run_dirs)), params_(params) {
  assert(!run_dirs_.empty());
}

ScientificWorkload::ClientState& ScientificWorkload::state(ClientId c) {
  if (static_cast<std::size_t>(c) >= clients_.size()) {
    clients_.resize(static_cast<std::size_t>(c) + 1);
  }
  return clients_[static_cast<std::size_t>(c)];
}

SimTime ScientificWorkload::next(ClientId c, SimTime now, Rng& rng,
                                 Operation* out) {
  (void)now;
  ClientState& s = state(c);

  if (s.remaining == 0) {
    // Enter the next burst after a compute phase. Burst type and target
    // are functions of the burst *number*, so all clients converge on the
    // same file/directory (the defining property of the workload).
    const std::uint64_t b = s.burst++;
    s.remaining = params_.ops_per_burst;
    // Burst type is a (hashed) function of the burst number so all
    // clients agree on it and the two shapes interleave at the right
    // ratio from the very first burst.
    const std::uint64_t bh = (b + 1) * 0x9e3779b97f4a7c15ULL;
    s.n_to_1 = static_cast<double>(bh >> 40) /
                   static_cast<double>(1ULL << 24) <
               params_.n_to_1_fraction;
    FsNode* dir = run_dirs_[b % run_dirs_.size()];
    if (!tree_.alive(dir)) dir = run_dirs_.front();
    if (s.n_to_1) {
      // Deterministic shared file within the run dir.
      FsNode* shared = nullptr;
      if (!dir->children_list().empty()) {
        std::uint64_t idx = b % dir->children_list().size();
        for (FsNode* child : dir->children_list()) {
          if (idx-- == 0) {
            shared = child;
            break;
          }
        }
      }
      s.open_target = shared != nullptr && !shared->is_dir() ? shared : dir;
    } else {
      s.open_target = dir;
    }
    // First op of the burst: compute-phase delay plus a small skew.
    --s.remaining;
    if (s.n_to_1) {
      out->op = OpType::kOpen;
      out->target = s.open_target;
    } else {
      out->op = OpType::kCreate;
      out->target = s.open_target;
      out->name = "ck" + std::to_string(c) + "_" +
                  std::to_string(s.name_counter++);
    }
    out->secondary = nullptr;
    return params_.compute_phase + rng.uniform(kBurstSkew);
  }

  --s.remaining;
  if (s.open_target == nullptr || !tree_.alive(s.open_target)) {
    s.remaining = 0;
    return next(c, now, rng, out);
  }
  if (s.n_to_1) {
    if (!s.open_target->is_dir() &&
        rng.uniform_double() < params_.n_to_1_write_fraction) {
      // Concurrent writers bumping the shared file's size/mtime.
      out->op = OpType::kSetattr;
      out->target = s.open_target;
      out->secondary = nullptr;
      return static_cast<SimTime>(
          rng.exponential(static_cast<double>(kBurstThink)));
    }
    // Alternate open/close on the shared file; sprinkle stats.
    const std::uint64_t phase = rng.uniform(4);
    out->op = phase == 0   ? OpType::kOpen
              : phase == 1 ? OpType::kClose
              : OpType::kStat;
    out->target = s.open_target;
  } else {
    out->op = OpType::kCreate;
    out->target = s.open_target;
    out->name =
        "ck" + std::to_string(c) + "_" + std::to_string(s.name_counter++);
  }
  out->secondary = nullptr;
  return static_cast<SimTime>(
      rng.exponential(static_cast<double>(kBurstThink)));
}

}  // namespace mdsim
