#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "fstree/generator.h"
#include "fstree/path.h"
#include "fstree/tree.h"

namespace mdsim {
namespace {

TEST(Path, SplitAndJoin) {
  EXPECT_EQ(split_path("/a/b/c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_path("//a///b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_path("/"), std::vector<std::string>{});
  EXPECT_EQ(join_path({"a", "b"}), "/a/b");
  EXPECT_EQ(join_path({}), "/");
}

TEST(Path, PrefixCheck) {
  EXPECT_TRUE(path_has_prefix("/a/b/c", "/a/b"));
  EXPECT_TRUE(path_has_prefix("/a/b", "/a/b"));
  EXPECT_TRUE(path_has_prefix("/a/b", "/"));
  EXPECT_FALSE(path_has_prefix("/a/b", "/a/b/c"));
  EXPECT_FALSE(path_has_prefix("/a/bb", "/a/b"));
}

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

TEST_F(FsTreeTest, ForEachDescendantMatchesIsAncestorOf) {
  // Every node ever created, tombstones included: the oracle's universe.
  std::vector<FsNode*> all{tree.root()};
  auto mk = [&](FsNode* dir, const std::string& name) {
    all.push_back(tree.mkdir(dir, name));
    return all.back();
  };
  auto file = [&](FsNode* dir, const std::string& name) {
    all.push_back(tree.create_file(dir, name));
    return all.back();
  };
  FsNode* a = mk(tree.root(), "a");
  FsNode* b = mk(a, "b");
  FsNode* c = mk(b, "c");
  FsNode* empty = mk(b, "empty");
  FsNode* d = mk(tree.root(), "d");
  FsNode* fa = file(a, "fa");
  FsNode* fb1 = file(b, "fb1");
  FsNode* fb2 = file(b, "fb2");
  FsNode* fc = file(c, "fc");
  FsNode* fe = file(empty, "fe");
  file(d, "fd");

  // Removed before the ancestor rename: a file, and an empty subdirectory
  // whose own file went first (a tombstone below a tombstone).
  ASSERT_TRUE(tree.remove(fb1));
  ASSERT_TRUE(tree.remove(fe));
  ASSERT_TRUE(tree.remove(empty));
  // Move b (and every tombstone below it) from a to d.
  ASSERT_TRUE(tree.rename(b, d, "b2"));
  // Removed after the rename.
  ASSERT_TRUE(tree.remove(fc));
  // Remote links in both directions across the moved subtree.
  ASSERT_TRUE(tree.link(fa, c, "ln_in"));
  ASSERT_TRUE(tree.link(fb2, a, "ln_out"));

  for (FsNode* root : all) {
    std::vector<const FsNode*> walked;
    tree.for_each_descendant(root, [&](FsNode* n) { walked.push_back(n); });
    std::set<const FsNode*> seen(walked.begin(), walked.end());
    EXPECT_EQ(seen.size(), walked.size()) << "repeat under " << root->name();
    std::set<const FsNode*> expect;
    for (FsNode* n : all) {
      if (n != root && FsTree::is_ancestor_of(root, n)) expect.insert(n);
    }
    EXPECT_EQ(seen, expect) << "under " << root->name();
  }

  // The tombstones follow b to its new parent, and leave the old one.
  std::set<const FsNode*> under_d, under_a, under_c;
  tree.for_each_descendant(d, [&](FsNode* n) { under_d.insert(n); });
  tree.for_each_descendant(a, [&](FsNode* n) { under_a.insert(n); });
  tree.for_each_descendant(c, [&](FsNode* n) { under_c.insert(n); });
  for (const FsNode* t : {fb1, fe, empty, fc}) {
    EXPECT_FALSE(tree.alive(t));
    EXPECT_EQ(under_d.count(t), 1u) << t->name();
    EXPECT_EQ(under_a.count(t), 0u) << t->name();
  }
  // A remote link names an inode but is not a node: c's link to fa does
  // not pull fa in, and a's link to fb2 does not pull fb2 in.
  EXPECT_EQ(under_c, (std::set<const FsNode*>{fc}));
  EXPECT_EQ(under_a, (std::set<const FsNode*>{fa}));
}

TEST_F(FsTreeTest, VisitCoversAllNodes) {
  FsNode* a = tree.mkdir(tree.root(), "a");
  tree.create_file(a, "f1");
  tree.create_file(a, "f2");
  std::set<InodeId> seen;
  tree.visit([&](FsNode* n) { seen.insert(n->ino()); });
  EXPECT_EQ(seen.size(), tree.node_count());
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
