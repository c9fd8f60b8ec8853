#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "common/rng.h"
#include "fstree/generator.h"
#include "fstree/tree.h"
#include "storage/btree.h"
#include "storage/object_store.h"
#include "workload/general.h"
#include "workload/op_mix.h"

namespace mdsim {
namespace {

class FsTreeTest : public ::testing::Test {
 protected:
  FsTree tree;
};

TEST_F(FsTreeTest, RootProperties) {
  FsNode* root = tree.root();
  EXPECT_EQ(root->ino(), kRootInode);
  EXPECT_TRUE(root->is_dir());
  EXPECT_EQ(root->depth(), 0u);
  EXPECT_EQ(root->path(), "/");
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST_F(FsTreeTest, LookupIgnoresLeadingAndRepeatedSlashes) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  FsNode* b = tree.mkdir(a, "b");
  FsNode* f = tree.create_file(b, "f");
  EXPECT_EQ(tree.lookup("/a/b/f"), f);
  EXPECT_EQ(tree.lookup("//a///b/"), b);
  EXPECT_EQ(tree.lookup("a/b"), b);
  EXPECT_EQ(tree.lookup("/"), tree.root());
  EXPECT_EQ(tree.lookup(""), tree.root());
  EXPECT_EQ(tree.lookup("/a/b/f/g"), nullptr);  // a file has no children
  EXPECT_EQ(tree.lookup("/a/bb"), nullptr);
}

TEST_F(FsTreeTest, CreateAndLookup) {
  FsNode* home = tree.mkdir(tree.root(), "home");
  ASSERT_NE(home, nullptr);
  FsNode* f = tree.create_file(home, "a.txt");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path(), "/home/a.txt");
  EXPECT_EQ(f->depth(), 2u);
  EXPECT_EQ(tree.lookup("/home/a.txt"), f);
  EXPECT_EQ(tree.lookup("/home"), home);
  EXPECT_EQ(tree.lookup("/nope"), nullptr);
  EXPECT_EQ(tree.by_ino(f->ino()), f);
  EXPECT_EQ(tree.node_count(), 3u);
}

TEST_F(FsTreeTest, DuplicateNamesRejected) {
  FsNode* d = tree.mkdir(tree.root(), "d");
  ASSERT_NE(tree.create_file(d, "x"), nullptr);
  EXPECT_EQ(tree.create_file(d, "x"), nullptr);
  EXPECT_EQ(tree.mkdir(d, "x"), nullptr);
}

TEST_F(FsTreeTest, InodeNumbersUnique) {
  FsNode* d = tree.mkdir(tree.root(), "d");
  std::unordered_set<InodeId> inos{tree.root()->ino(), d->ino()};
  for (int i = 0; i < 100; ++i) {
    FsNode* f = tree.create_file(d, "f" + std::to_string(i));
    EXPECT_TRUE(inos.insert(f->ino()).second);
  }
}

TEST_F(FsTreeTest, SubtreeSizesMaintained) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  FsNode* b = tree.mkdir(a, "b");
  tree.create_file(b, "f1");
  tree.create_file(b, "f2");
  EXPECT_EQ(b->subtree_size(), 3u);
  EXPECT_EQ(a->subtree_size(), 4u);
  EXPECT_EQ(tree.root()->subtree_size(), 5u);
}

TEST_F(FsTreeTest, RemoveFileUpdatesEverything) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  FsNode* f = tree.create_file(a, "f");
  const InodeId ino = f->ino();
  EXPECT_TRUE(tree.remove(f));
  EXPECT_EQ(tree.by_ino(ino), nullptr);
  EXPECT_EQ(a->child_count(), 0u);
  EXPECT_EQ(a->subtree_size(), 1u);
  EXPECT_FALSE(tree.alive(f));
  // Tombstone: the node object is still readable.
  EXPECT_EQ(f->ino(), ino);
}

TEST_F(FsTreeTest, RemoveRefusesNonEmptyDirAndRoot) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  tree.create_file(a, "f");
  EXPECT_FALSE(tree.remove(a));
  EXPECT_FALSE(tree.remove(tree.root()));
}

TEST_F(FsTreeTest, RenameFileBetweenDirs) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  FsNode* b = tree.mkdir(tree.root(), "b");
  FsNode* f = tree.create_file(a, "f");
  ASSERT_TRUE(tree.rename(f, b, "g"));
  EXPECT_EQ(f->path(), "/b/g");
  EXPECT_EQ(f->name(), "g");
  EXPECT_EQ(a->child_count(), 0u);
  EXPECT_EQ(b->child_count(), 1u);
  EXPECT_EQ(a->subtree_size(), 1u);
  EXPECT_EQ(b->subtree_size(), 2u);
  EXPECT_EQ(tree.lookup("/b/g"), f);
}

TEST_F(FsTreeTest, RenameDirFixesDepthsAndHashes) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  FsNode* b = tree.mkdir(tree.root(), "b");
  FsNode* sub = tree.mkdir(a, "sub");
  FsNode* f = tree.create_file(sub, "f");
  const std::uint64_t old_hash = f->path_hash();
  ASSERT_TRUE(tree.rename(sub, b, "sub2"));
  EXPECT_EQ(f->path(), "/b/sub2/f");
  EXPECT_EQ(f->depth(), 3u);
  EXPECT_NE(f->path_hash(), old_hash);
  // A fresh node at the same path would have the same hash.
  FsNode* c = tree.mkdir(tree.root(), "c");
  ASSERT_TRUE(tree.rename(sub, c, "sub"));
  EXPECT_EQ(f->path(), "/c/sub/f");
}

TEST_F(FsTreeTest, RenameIntoOwnSubtreeRejected) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  FsNode* b = tree.mkdir(a, "b");
  EXPECT_FALSE(tree.rename(a, b, "x"));
  EXPECT_FALSE(tree.rename(a, a, "self"));
}

TEST_F(FsTreeTest, PathHashDeterministicAndPositional) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  FsNode* f = tree.create_file(a, "f");
  EXPECT_EQ(f->path_hash(), child_path_hash(a, "f"));
  EXPECT_NE(f->path_hash(), a->path_hash());
  // Same name in a different directory hashes differently.
  FsNode* b = tree.mkdir(tree.root(), "b");
  FsNode* f2 = tree.create_file(b, "f");
  EXPECT_NE(f->path_hash(), f2->path_hash());
}

TEST_F(FsTreeTest, HardLinks) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  FsNode* b = tree.mkdir(tree.root(), "b");
  FsNode* f = tree.create_file(a, "f");
  EXPECT_TRUE(tree.link(f, b, "ln"));
  EXPECT_EQ(f->inode().nlink, 2u);
  EXPECT_EQ(tree.remote_links().size(), 1u);
  // Linked files cannot be removed while links exist.
  EXPECT_FALSE(tree.remove(f));
  // Directories cannot be hard-linked.
  EXPECT_FALSE(tree.link(a, b, "lnd"));
}

TEST_F(FsTreeTest, VersionBumpsOnMutation) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  const std::uint64_t v0 = a->inode().version;
  tree.create_file(a, "f");
  EXPECT_GT(a->inode().version, v0);
  FsNode* f = a->child("f");
  const std::uint64_t fv = f->inode().version;
  tree.touch(f, 100, 5);
  EXPECT_GT(f->inode().version, fv);
  EXPECT_EQ(f->inode().size, 100u);
  Perms p;
  p.mode = 0700;
  const std::uint64_t fv2 = f->inode().version;
  tree.chmod(f, p, 6);
  EXPECT_GT(f->inode().version, fv2);
}

TEST_F(FsTreeTest, SamplingVectorsTrackMembership) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  std::vector<FsNode*> files;
  for (int i = 0; i < 10; ++i) {
    files.push_back(tree.create_file(a, "f" + std::to_string(i)));
  }
  EXPECT_EQ(tree.files().size(), 10u);
  EXPECT_EQ(tree.dirs().size(), 2u);  // root + a
  ASSERT_TRUE(tree.remove(files[3]));
  EXPECT_EQ(tree.files().size(), 9u);
  for (FsNode* f : tree.files()) EXPECT_NE(f, files[3]);
}

TEST_F(FsTreeTest, AncestryAndIsAncestor) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  FsNode* b = tree.mkdir(a, "b");
  FsNode* f = tree.create_file(b, "f");
  const auto chain = f->ancestry();
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0], tree.root());
  EXPECT_EQ(chain[3], f);
  EXPECT_TRUE(FsTree::is_ancestor_of(a, f));
  EXPECT_TRUE(FsTree::is_ancestor_of(f, f));
  EXPECT_FALSE(FsTree::is_ancestor_of(f, a));
}

TEST_F(FsTreeTest, VisitCoversAllNodes) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  tree.create_file(a, "f1");
  tree.create_file(a, "f2");
  std::set<InodeId> seen;
  tree.visit([&](FsNode* n) { seen.insert(n->ino()); });
  EXPECT_EQ(seen.size(), tree.node_count());
}

// --- child list -------------------------------------------------------------

using Oracle = std::map<std::string, FsNode*>;

/// `dir`'s children against the oracle: name order, pointer identity,
/// counts, and the block occupancy bound (no empty or oversized block, and
/// no two adjacent blocks that would fit in one).
::testing::AssertionResult MatchesOracle(const FsNode* dir,
                                         const Oracle& oracle) {
  const ChildList& list = dir->children_list();
  if (list.size() != oracle.size() || dir->child_count() != oracle.size()) {
    return ::testing::AssertionFailure()
           << "size " << list.size() << " vs oracle " << oracle.size();
  }
  auto want = oracle.begin();
  for (FsNode* c : list) {
    if (want == oracle.end() || c != want->second || c->name() != want->first) {
      return ::testing::AssertionFailure() << "order differs at " << c->name();
    }
    if (c->parent() != dir) {
      return ::testing::AssertionFailure() << c->name() << " has wrong parent";
    }
    ++want;
  }
  const auto& blocks = list.blocks();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].empty() || blocks[i].size() > ChildList::kBlock) {
      return ::testing::AssertionFailure()
             << "block " << i << " holds " << blocks[i].size();
    }
    if (i + 1 < blocks.size() &&
        blocks[i].size() + blocks[i + 1].size() <= ChildList::kBlock) {
      return ::testing::AssertionFailure()
             << "blocks " << i << "+" << i + 1 << " fit in one ("
             << blocks[i].size() << "+" << blocks[i + 1].size() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_F(FsTreeTest, ChildListMatchesMapOracleUnderChurn) {
  constexpr int kOps = 24000;
  // Each directory swings between kLow and kHigh children, so its block
  // count crosses kBlock boundaries many times in both directions.
  constexpr std::size_t kLow = 40;
  constexpr std::size_t kHigh = 5 * ChildList::kBlock;
  std::vector<FsNode*> dirs{tree.mkdir(tree.root(), "a"),
                            tree.mkdir(tree.root(), "b")};
  std::map<const FsNode*, Oracle> oracle;
  std::vector<bool> growing(dirs.size(), true);
  std::size_t block_count_changes = 0;
  InodeId next_ino = tree.create_file(tree.root(), "probe")->ino() + 1;
  Rng rng(4242);
  auto random_name = [&] {
    return "n" + std::to_string(rng.uniform(20000));
  };
  auto random_child = [&](std::size_t d) {
    const Oracle& o = oracle[dirs[d]];
    auto it = o.begin();
    std::advance(it, static_cast<long>(rng.uniform(o.size())));
    return it;
  };

  for (int op = 0; op < kOps; ++op) {
    const std::size_t d = rng.uniform(dirs.size());
    FsNode* dir = dirs[d];
    Oracle& o = oracle[dir];
    const std::size_t blocks_before = dir->children_list().blocks().size();
    if (o.size() >= kHigh) growing[d] = false;
    if (o.size() <= kLow) growing[d] = true;
    std::vector<const FsNode*> touched{dir};
    const double p_create = growing[d] ? 0.75 : 0.25;
    const double r = rng.uniform_double();
    if (o.empty() || r < p_create) {
      // Create; 30% of the time reuse a live name (must be refused
      // without spending an inode number).
      const bool dup = !o.empty() && rng.bernoulli(0.3);
      const std::string name = dup ? random_child(d)->first : random_name();
      const bool exists = o.count(name) != 0;
      FsNode* n = rng.bernoulli(0.1) ? tree.mkdir(dir, name)
                                     : tree.create_file(dir, name);
      if (exists) {
        ASSERT_EQ(n, nullptr) << name;
      } else {
        ASSERT_NE(n, nullptr) << name;
        ASSERT_EQ(n->ino(), next_ino) << "a refused create spent an ino";
        ++next_ino;
        o.emplace(name, n);
      }
    } else if (r < p_create + (1 - p_create) * 0.6) {
      // Unlink (only empty directories are ever created here).
      auto victim = random_child(d);
      ASSERT_TRUE(tree.remove(victim->second)) << victim->first;
      ASSERT_FALSE(tree.alive(victim->second));
      o.erase(victim);
    } else {
      // Rename, in-directory or across; onto a live name must fail.
      const std::size_t to_d =
          rng.bernoulli(0.5) ? d : rng.uniform(dirs.size());
      FsNode* to = dirs[to_d];
      Oracle& to_o = oracle[to];
      auto moving = random_child(d);
      FsNode* node = moving->second;
      const std::string name =
          rng.bernoulli(0.1) && !to_o.empty()
              ? std::next(to_o.begin(),
                          static_cast<long>(rng.uniform(to_o.size())))
                    ->first
              : random_name();
      const bool clash = to_o.count(name) != 0;
      ASSERT_EQ(tree.rename(node, to, name), !clash) << name;
      if (!clash) {
        o.erase(moving);
        to_o.emplace(name, node);
        EXPECT_EQ(node->name(), name);
        touched.push_back(to);
      }
    }
    for (const FsNode* t : touched) {
      ASSERT_TRUE(MatchesOracle(t, oracle[t])) << "after op " << op;
    }
    if (dir->children_list().blocks().size() != blocks_before) {
      ++block_count_changes;
    }
    // Lookups: one probable miss, one hit (when non-empty).
    const std::string probe = random_name();
    const auto hit = o.find(probe);
    ASSERT_EQ(dir->child(probe), hit == o.end() ? nullptr : hit->second);
    if (!o.empty()) {
      const auto live = random_child(d);
      ASSERT_EQ(dir->child(live->first), live->second);
      ASSERT_EQ(tree.lookup("/" + dir->name() + "/" + live->first),
                live->second);
    }
  }
  for (FsNode* dir : dirs) {
    EXPECT_TRUE(MatchesOracle(dir, oracle[dir]));
    EXPECT_EQ(dir->subtree_size(), oracle[dir].size() + 1);
  }
  // Both directions, many times: the swings are real.
  EXPECT_GT(block_count_changes, 100u);
}

TEST_F(FsTreeTest, DuplicateCreateSpendsNoInode) {
  FsNode* d = tree.mkdir(tree.root(), "d");
  for (int i = 0; i < 600; ++i) tree.create_file(d, "f" + std::to_string(i));
  FsNode* last = tree.create_file(d, "z");
  const std::uint64_t version = d->inode().version;
  EXPECT_EQ(tree.create_file(d, "f300"), nullptr);
  EXPECT_EQ(tree.mkdir(d, "z"), nullptr);
  EXPECT_EQ(d->inode().version, version);
  EXPECT_EQ(d->child_count(), 601u);
  EXPECT_EQ(tree.create_file(d, "next")->ino(), last->ino() + 1);
}

TEST_F(FsTreeTest, EmptyingADirectoryDropsEveryBlock) {
  FsNode* d = tree.mkdir(tree.root(), "d");
  std::vector<FsNode*> kids;
  for (int i = 0; i < 1000; ++i) {
    kids.push_back(tree.create_file(d, "f" + std::to_string(i * 7919 % 1000)));
  }
  EXPECT_GE(d->children_list().blocks().size(), 4u);
  Oracle o;
  for (FsNode* k : kids) o.emplace(k->name(), k);
  // Remove in a scattered order so blocks all over the list shrink, fold
  // into neighbours and finally empty.
  for (std::size_t i = 0; i < kids.size(); ++i) {
    FsNode* k = kids[(i * 613) % kids.size()];
    ASSERT_TRUE(tree.remove(k));
    o.erase(k->name());
    ASSERT_TRUE(MatchesOracle(d, o)) << "after removing " << k->name();
  }
  EXPECT_TRUE(d->children_list().empty());
  EXPECT_TRUE(d->children_list().blocks().empty());
  EXPECT_EQ(d->children_list().begin(), d->children_list().end());
  EXPECT_EQ(d->child("f1"), nullptr);
  // The emptied directory is usable again, and removable.
  FsNode* again = tree.create_file(d, "again");
  EXPECT_EQ(d->children_list().front(), again);
  ASSERT_TRUE(tree.remove(again));
  EXPECT_TRUE(tree.remove(d));
}

TEST_F(FsTreeTest, RenameWithinDirectoryKeepsNodeAndOrder) {
  FsNode* d = tree.mkdir(tree.root(), "d");
  Oracle o;
  for (int i = 0; i < 4 * static_cast<int>(ChildList::kBlock); ++i) {
    const std::string name = "m" + std::to_string(1000 + i);
    o.emplace(name, tree.create_file(d, name));
  }
  const std::size_t blocks = d->children_list().blocks().size();
  // Move the first child past the last, the last before the first, and a
  // middle one to the slot just after its own: the node object stays put.
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"m1000", "z"}, {"m2023", "a"}, {"m1500", "m1500x"}}) {
    FsNode* n = o.at(from);
    const InodeId ino = n->ino();
    ASSERT_TRUE(tree.rename(n, d, to));
    o.erase(from);
    o.emplace(to, n);
    EXPECT_EQ(d->child(to), n);
    EXPECT_EQ(d->child(from), nullptr);
    EXPECT_EQ(tree.by_ino(ino), n);
    ASSERT_TRUE(MatchesOracle(d, o));
  }
  EXPECT_EQ(d->children_list().front(), o.at("a"));
  EXPECT_EQ(d->children_list().blocks().size(), blocks);
  // Onto a live name, or onto its own name: refused, nothing moves.
  EXPECT_FALSE(tree.rename(o.at("a"), d, "z"));
  EXPECT_FALSE(tree.rename(o.at("a"), d, "a"));
  EXPECT_TRUE(MatchesOracle(d, o));
}

/// The name order that seeded draws and readdir bursts depend on, checked
/// through its consumers on a directory spanning several blocks.
TEST_F(FsTreeTest, ChildOrderContractAcrossBlocks) {
  FsNode* big = tree.mkdir(tree.root(), "big");
  FsNode* other = tree.mkdir(tree.root(), "other");
  std::vector<FsNode*> all{big};
  Rng rng(99);
  for (int i = 0; i < 1400; ++i) {
    const std::string name = "c" + std::to_string(rng.uniform(1000000));
    FsNode* n =
        i % 50 == 0 ? tree.mkdir(big, name) : tree.create_file(big, name);
    if (n == nullptr) continue;
    all.push_back(n);
    if (n->is_dir()) all.push_back(tree.create_file(n, "inner"));
  }
  // Interleave unlinks (tombstones), renames in, out and within, and
  // further creates.
  for (int i = 0; i < 600; ++i) {
    std::vector<FsNode*> files;
    for (FsNode* c : big->children_list()) {
      if (!c->is_dir()) files.push_back(c);
    }
    FsNode* f = files[rng.uniform(files.size())];
    switch (i % 4) {
      case 0:
        ASSERT_TRUE(tree.remove(f));
        break;
      case 1:
        tree.rename(f, big, "r" + std::to_string(rng.uniform(1000000)));
        break;
      case 2:
        ASSERT_TRUE(tree.rename(f, other, "out" + std::to_string(i)));
        break;
      default:
        if (FsNode* n = tree.create_file(
                big, "c" + std::to_string(rng.uniform(1000000)))) {
          all.push_back(n);
        }
        break;
    }
  }
  ASSERT_GE(big->children_list().blocks().size(), 4u);
  std::vector<std::string> names;
  for (FsNode* c : all) {
    if (tree.alive(c) && c->parent() == big) names.push_back(c->name());
  }
  std::sort(names.begin(), names.end());
  ASSERT_EQ(names.size(), big->child_count());

  // Materialization inserts records in name order: the scan matches and
  // the object's shape equals a B-tree built from the sorted names.
  ObjectStore store;
  store.full_fetch_nodes(big);
  const DirBTree* obj = store.object_for_testing(big);
  ASSERT_NE(obj, nullptr);
  std::vector<std::string> scanned;
  obj->scan(
      [&](const std::string& k, const DirRecord&) { scanned.push_back(k); },
      nullptr);
  EXPECT_EQ(scanned, names);
  DirBTree reference;
  for (const std::string& n : names) reference.insert(n, DirRecord{}, nullptr);
  EXPECT_EQ(obj->node_count(), reference.node_count());
  EXPECT_EQ(obj->height(), reference.height());

  // A readdir stat burst takes the first N children in name order.
  constexpr int kBurst = 40;
  std::vector<double> weights(kNumOpTypes, 0.0);
  weights[static_cast<std::size_t>(OpType::kReaddir)] = 1.0;
  GeneralWorkloadParams params;
  params.readdir_stat_burst = kBurst;
  params.p_stay = 1.0;
  GeneralWorkload wl(tree, {big}, OpMix(weights), params);
  Rng wl_rng(5);
  Operation op;
  wl.next(0, 0, wl_rng, &op);
  ASSERT_EQ(op.op, OpType::kReaddir);
  ASSERT_EQ(op.target, big);
  for (int i = 0; i < kBurst; ++i) {
    wl.next(0, 0, wl_rng, &op);
    ASSERT_EQ(op.op, OpType::kStat);
    EXPECT_EQ(op.target->name(), names[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(DentryHash, MatchesNameHashThroughEveryMutation) {
  NamespaceParams params;
  params.seed = 5;
  params.num_users = 6;
  params.nodes_per_user = 120;
  params.num_projects = 1;
  FsTree tree;
  NamespaceInfo info = generate_namespace(tree, params);
  auto expect_all = [&](const char* when) {
    std::size_t checked = 0;
    tree.visit([&](FsNode* n) {
      if (n->parent() == nullptr) return;
      ++checked;
      EXPECT_EQ(n->dentry_hash(), giga_name_hash(n->parent()->ino(), n->name()))
          << when << ": " << n->path();
    });
    EXPECT_EQ(checked + 1, tree.node_count()) << when;
  };
  expect_all("generated");

  FsNode* home = info.user_roots[0];
  FsNode* other = info.user_roots[1];
  FsNode* f = tree.create_file(home, "fresh_file");
  FsNode* d = tree.mkdir(home, "fresh_dir");
  FsNode* inner = tree.create_file(d, "inner");
  ASSERT_NE(f, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(f->dentry_hash(), giga_name_hash(home->ino(), "fresh_file"));
  EXPECT_EQ(d->dentry_hash(), giga_name_hash(home->ino(), "fresh_dir"));
  expect_all("create/mkdir");

  // Cross-directory rename of a directory: its own hash follows the new
  // parent and name; the child it carries keeps its parent and its hash.
  const std::uint64_t inner_before = inner->dentry_hash();
  ASSERT_TRUE(tree.rename(d, other, "moved_dir"));
  EXPECT_EQ(d->dentry_hash(), giga_name_hash(other->ino(), "moved_dir"));
  EXPECT_EQ(inner->dentry_hash(), inner_before);
  expect_all("cross-directory rename");

  // Same-directory rename: the name alone changes the hash.
  ASSERT_TRUE(tree.rename(f, home, "renamed_file"));
  EXPECT_EQ(f->dentry_hash(), giga_name_hash(home->ino(), "renamed_file"));
  expect_all("same-directory rename");

  // A tombstone keeps the hash of its last dentry.
  const std::uint64_t f_hash = f->dentry_hash();
  ASSERT_TRUE(tree.remove(f));
  EXPECT_FALSE(tree.alive(f));
  EXPECT_EQ(f->dentry_hash(), f_hash);
  EXPECT_EQ(f->dentry_hash(), giga_name_hash(f->parent()->ino(), f->name()));
  expect_all("remove");
}

// --- generator ------------------------------------------------------------

TEST(Generator, DeterministicForSeed) {
  NamespaceParams params;
  params.seed = 77;
  params.num_users = 8;
  params.nodes_per_user = 100;
  FsTree t1, t2;
  generate_namespace(t1, params);
  generate_namespace(t2, params);
  EXPECT_EQ(t1.node_count(), t2.node_count());
  const auto s1 = measure_shape(t1);
  const auto s2 = measure_shape(t2);
  EXPECT_EQ(s1.files, s2.files);
  EXPECT_EQ(s1.dirs, s2.dirs);
  EXPECT_EQ(s1.max_depth, s2.max_depth);
}

TEST(Generator, RespectsShapeKnobs) {
  NamespaceParams params;
  params.num_users = 16;
  params.nodes_per_user = 200;
  params.max_depth = 4;
  FsTree tree;
  NamespaceInfo info = generate_namespace(tree, params);
  EXPECT_EQ(info.user_roots.size(), 16u);
  const NamespaceShape shape = measure_shape(tree);
  // Depth bound: home dirs sit at depth 2, so max is 2 + max_depth + 1.
  EXPECT_LE(shape.max_depth, 2u + 4u + 1u);
  EXPECT_GT(shape.files, 1000u);
  // Budget keeps each user subtree near the target.
  for (FsNode* home : info.user_roots) {
    EXPECT_LE(home->subtree_size(), 220u);
  }
}

TEST(Generator, ScientificProjectsAreLargeFlatDirs) {
  NamespaceParams params;
  params.num_users = 2;
  params.nodes_per_user = 50;
  params.num_projects = 2;
  params.project_runs = 3;
  params.project_dir_files = 500;
  FsTree tree;
  NamespaceInfo info = generate_namespace(tree, params);
  ASSERT_EQ(info.project_roots.size(), 2u);
  const NamespaceShape shape = measure_shape(tree);
  EXPECT_GE(shape.max_dir_size, 500u);
  for (FsNode* proj : info.project_roots) {
    EXPECT_EQ(proj->child_count(), 3u);
  }
}

TEST(Generator, HardLinksSprinkled) {
  NamespaceParams params;
  params.num_users = 8;
  params.nodes_per_user = 300;
  params.hard_link_fraction = 0.01;
  FsTree tree;
  generate_namespace(tree, params);
  EXPECT_GT(tree.remote_links().size(), 0u);
}

}  // namespace
}  // namespace mdsim
