// Synthetic file-system snapshot generator.
//
// Substitution for the paper's "snapshots of actual file systems" (section
// 5.2): a seeded generator that produces (a) a large collection of home
// directories — the paper's evaluated namespace — and (b) scientific
// project trees with large flat directories, matching the LLNL workload
// analysis the paper cites. Shape parameters (depth, branching, dir sizes,
// file/dir ratio) are explicit so experiments hold them fixed across
// strategies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fstree/tree.h"

namespace mdsim {

/// Home directories are sharded into alphabetical-style group dirs
/// (/home/g3/u117) of about this size, like large sites do; keeps the
/// top-level fanout bounded.
inline constexpr int kHomeGroupSize = 64;
/// Mean files per directory (geometric-ish, Zipf-skewed sizes).
inline constexpr double kMeanFilesPerDir = 8.0;
/// Mean subdirectories per directory; decays with depth.
inline constexpr double kMeanDirsPerDir = 2.4;
/// Zipf skew of directory sizes (bigger -> a few huge directories).
inline constexpr double kDirSizeSkew = 1.1;

struct NamespaceParams {
  std::uint64_t seed = 42;

  /// Number of user home directories under /home.
  int num_users = 64;
  /// Approximate total node budget per user subtree.
  int nodes_per_user = 600;
  /// Maximum directory nesting below a home directory.
  int max_depth = 8;

  /// Scientific projects under /proj (0 disables).
  int num_projects = 0;
  /// Files per checkpoint/run directory in a project (large & flat).
  int project_dir_files = 2000;
  /// Run directories per project.
  int project_runs = 4;

  /// Fraction of files receiving an extra hard link (rare; section 4.5).
  double hard_link_fraction = 0.0005;

  /// Fraction of directories that are group/other-traversable (the rest
  /// are user-private; affects permission checks).
  double world_readable_fraction = 0.9;
};

struct NamespaceInfo {
  FsNode* home = nullptr;  // "/home"
  FsNode* proj = nullptr;  // "/proj" (nullptr if num_projects == 0)
  std::vector<FsNode*> user_roots;
  std::vector<FsNode*> project_roots;
};

/// Populate `tree` (expected to be freshly constructed) according to
/// `params`. Deterministic for a given seed.
NamespaceInfo generate_namespace(FsTree& tree, const NamespaceParams& params);

/// Summary shape statistics, used by tests and DESIGN verification.
struct NamespaceShape {
  std::uint64_t files = 0;
  std::uint64_t dirs = 0;
  double mean_depth = 0.0;
  std::uint32_t max_depth = 0;
  double mean_dir_size = 0.0;  // dentries per directory
  std::uint64_t max_dir_size = 0;
};

NamespaceShape measure_shape(const FsTree& tree);

}  // namespace mdsim
