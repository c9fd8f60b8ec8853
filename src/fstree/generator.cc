#include "fstree/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace mdsim {

namespace {

const char* const kDirWords[] = {
    "src",  "doc",    "data",  "lib",   "bin",   "test", "old",
    "tmp",  "images", "notes", "build", "cache", "mail", "papers",
    "talk", "music",  "code",  "misc",  "backup"};
constexpr int kNumDirWords = sizeof(kDirWords) / sizeof(kDirWords[0]);

const char* const kFileStems[] = {"report", "main",  "readme", "draft",
                                  "figure", "run",   "result", "input",
                                  "output", "notes", "index",  "a"};
constexpr int kNumFileStems = sizeof(kFileStems) / sizeof(kFileStems[0]);

const char* const kFileExts[] = {".txt", ".c",   ".h",   ".dat",
                                 ".log", ".tex", ".out", ""};
constexpr int kNumFileExts = sizeof(kFileExts) / sizeof(kFileExts[0]);

struct GenContext {
  FsTree& tree;
  const NamespaceParams& params;
  Rng rng;
  std::uint32_t uid = 0;
  int budget = 0;
};

std::string unique_name(FsNode* dir, std::string base) {
  if (dir->child(base) == nullptr) return base;
  for (int i = 2;; ++i) {
    std::string candidate = base + "_" + std::to_string(i);
    if (dir->child(candidate) == nullptr) return candidate;
  }
}

Perms dir_perms(GenContext& ctx) {
  Perms p;
  p.uid = ctx.uid;
  p.mode = ctx.rng.bernoulli(ctx.params.world_readable_fraction) ? 0755 : 0700;
  return p;
}

Perms file_perms(GenContext& ctx) {
  Perms p;
  p.uid = ctx.uid;
  p.mode = 0644;
  return p;
}

void fill_directory(GenContext& ctx, FsNode* dir, int depth) {
  if (ctx.budget <= 0) return;
  const NamespaceParams& P = ctx.params;

  // File count: geometric around the mean, with a Zipf-flavoured heavy
  // tail so a few directories are very large (mirrors real namespaces).
  int files = static_cast<int>(ctx.rng.exponential(kMeanFilesPerDir));
  if (ctx.rng.bernoulli(0.02)) {
    files += static_cast<int>(
        ctx.rng.pareto(kMeanFilesPerDir * 4.0, kDirSizeSkew));
  }
  // Home directories are never near-empty: real ones hold dotfiles etc.
  if (depth == 0) files = std::max(files, 4);
  files = std::min(files, ctx.budget);
  for (int i = 0; i < files && ctx.budget > 0; ++i) {
    std::string name = unique_name(
        dir, std::string(kFileStems[ctx.rng.uniform(kNumFileStems)]) +
                 std::to_string(ctx.rng.uniform(1000)) +
                 kFileExts[ctx.rng.uniform(kNumFileExts)]);
    FsNode* f = ctx.tree.create_file(dir, name, file_perms(ctx));
    assert(f != nullptr);
    ctx.tree.touch(f, ctx.rng.uniform(1u << 24), 0);
    --ctx.budget;
  }

  if (depth >= P.max_depth || ctx.budget <= 0) return;

  // Subdirectory fan-out decays with depth so trees stay finite.
  const double mean_dirs =
      kMeanDirsPerDir * std::pow(0.8, static_cast<double>(depth));
  int subdirs = static_cast<int>(ctx.rng.exponential(mean_dirs) + 0.5);
  if (depth == 0) subdirs = std::max(subdirs, 1);
  subdirs = std::min(subdirs, ctx.budget);
  for (int i = 0; i < subdirs && ctx.budget > 0; ++i) {
    std::string name =
        unique_name(dir, kDirWords[ctx.rng.uniform(kNumDirWords)]);
    FsNode* sub = ctx.tree.mkdir(dir, name, dir_perms(ctx));
    assert(sub != nullptr);
    --ctx.budget;
    fill_directory(ctx, sub, depth + 1);
  }
}

}  // namespace

NamespaceInfo generate_namespace(FsTree& tree,
                                 const NamespaceParams& params) {
  NamespaceInfo info;
  Rng rng(params.seed, /*stream=*/0xf57ee);

  Perms root_perms;
  root_perms.mode = 0755;

  info.home = tree.mkdir(tree.root(), "home", root_perms);
  assert(info.home != nullptr);

  // Shard homes into group directories (bounded top-level fanout).
  std::vector<FsNode*> groups;
  if (params.num_users > kHomeGroupSize) {
    const int n_groups =
        (params.num_users + kHomeGroupSize - 1) / kHomeGroupSize;
    for (int g = 0; g < n_groups; ++g) {
      FsNode* grp =
          tree.mkdir(info.home, "g" + std::to_string(g), root_perms);
      assert(grp != nullptr);
      groups.push_back(grp);
    }
  }

  for (int u = 0; u < params.num_users; ++u) {
    GenContext ctx{tree, params, Rng(params.seed, 1000 + u),
                   static_cast<std::uint32_t>(100 + u),
                   params.nodes_per_user};
    Perms hp;
    hp.uid = ctx.uid;
    hp.mode = ctx.rng.bernoulli(params.world_readable_fraction) ? 0755 : 0700;
    FsNode* parent =
        groups.empty() ? info.home
                       : groups[static_cast<std::size_t>(u) % groups.size()];
    FsNode* home = tree.mkdir(parent, "u" + std::to_string(u), hp);
    assert(home != nullptr);
    info.user_roots.push_back(home);
    fill_directory(ctx, home, 0);
  }

  if (params.num_projects > 0) {
    info.proj = tree.mkdir(tree.root(), "proj", root_perms);
    assert(info.proj != nullptr);
    for (int p = 0; p < params.num_projects; ++p) {
      GenContext ctx{tree, params, Rng(params.seed, 5000 + p),
                     static_cast<std::uint32_t>(50 + p),
                     /*budget=*/1 << 30};
      FsNode* proj =
          tree.mkdir(info.proj, "p" + std::to_string(p), dir_perms(ctx));
      assert(proj != nullptr);
      info.project_roots.push_back(proj);
      for (int r = 0; r < params.project_runs; ++r) {
        FsNode* run =
            tree.mkdir(proj, "run" + std::to_string(r), dir_perms(ctx));
        assert(run != nullptr);
        for (int f = 0; f < params.project_dir_files; ++f) {
          FsNode* file = tree.create_file(
              run, "ckpt." + std::to_string(f), file_perms(ctx));
          assert(file != nullptr);
          tree.touch(file, ctx.rng.uniform(1u << 28), 0);
        }
      }
    }
  }

  // Sprinkle rare hard links between files owned by the same user.
  if (params.hard_link_fraction > 0 && tree.files().size() > 2) {
    const auto n_links = static_cast<std::size_t>(
        params.hard_link_fraction * static_cast<double>(tree.files().size()));
    for (std::size_t i = 0; i < n_links; ++i) {
      FsNode* target = tree.files()[rng.uniform(tree.files().size())];
      FsNode* dir = tree.dirs()[rng.uniform(tree.dirs().size())];
      tree.link(target, dir,
                "ln_" + std::to_string(target->ino()) + "_" +
                    std::to_string(i));
    }
  }

  return info;
}

NamespaceShape measure_shape(const FsTree& tree) {
  NamespaceShape s;
  double depth_sum = 0.0;
  double dentries = 0.0;
  tree.visit([&](FsNode* n) {
    if (n->is_dir()) {
      ++s.dirs;
      dentries += static_cast<double>(n->child_count());
      s.max_dir_size =
          std::max<std::uint64_t>(s.max_dir_size, n->child_count());
    } else {
      ++s.files;
    }
    depth_sum += n->depth();
    s.max_depth = std::max(s.max_depth, n->depth());
  });
  const double total = static_cast<double>(s.files + s.dirs);
  s.mean_depth = total > 0 ? depth_sum / total : 0.0;
  s.mean_dir_size = s.dirs > 0 ? dentries / static_cast<double>(s.dirs) : 0.0;
  return s;
}

}  // namespace mdsim
