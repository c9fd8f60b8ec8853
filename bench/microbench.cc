// Substrate micro-benchmarks (google-benchmark): the building blocks the
// simulator's wall-clock cost rests on. Not a paper figure — a performance
// regression harness for the library itself.
#include <benchmark/benchmark.h>

#include "cache/metadata_cache.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "fstree/generator.h"
#include "fstree/tree.h"
#include "net/network.h"
#include "sim/queue_server.h"
#include "sim/simulation.h"
#include "storage/btree.h"
#include "storage/journal.h"

namespace mdsim {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1);
  ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 1.1);
  for (auto _ : state) benchmark::DoNotOptimize(zipf(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(100)->Arg(100000);

void BM_EventQueueChurn(benchmark::State& state) {
  const std::uint64_t fb_base = inline_task_stats::heap_fallbacks;
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim;
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(static_cast<SimTime>(i * 7 % 997), [] {});
    }
    sim.run();
  }
  state.counters["task_heap_fallbacks"] = static_cast<double>(
      inline_task_stats::heap_fallbacks - fb_base);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

// --- Event-engine hot-path benches (every simulated op rides on these;
// the regression gate for sim/net core refactors) --------------------------

void BM_EventScheduleFire(benchmark::State& state) {
  const std::uint64_t fb_base = inline_task_stats::heap_fallbacks;
  // Steady-state schedule+fire throughput: one long-lived simulation,
  // batches of events with scattered delays (heap depth ~batch size).
  Simulation sim;
  constexpr int kBatch = 4096;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sim.schedule(static_cast<SimTime>((i * 2654435761u) % 9973),
                   [&sink] { ++sink; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["task_heap_fallbacks"] = static_cast<double>(
      inline_task_stats::heap_fallbacks - fb_base);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventScheduleFire);

void BM_EventCancelHeavy(benchmark::State& state) {
  const std::uint64_t fb_base = inline_task_stats::heap_fallbacks;
  // The client-timeout pattern: most scheduled events are cancelled
  // before they fire (timeout armed per request, cancelled on reply).
  Simulation sim;
  constexpr int kBatch = 2048;
  std::vector<EventHandle> handles;
  handles.reserve(kBatch);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < kBatch; ++i) {
      handles.push_back(sim.schedule(
          static_cast<SimTime>((i * 40503u) % 7919), [&sink] { ++sink; }));
    }
    for (int i = 0; i < kBatch; i += 2) {
      handles[static_cast<std::size_t>(i)].cancel();
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["task_heap_fallbacks"] = static_cast<double>(
      inline_task_stats::heap_fallbacks - fb_base);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventCancelHeavy);

void BM_EventLongTimeoutChurn(benchmark::State& state) {
  // The client request-timeout pattern at steady state, as a hold model:
  // 1250 actors each keep one reply ~1 ms away and one 5 s timeout
  // pending (2.5 k live events). Every reply cancels its actor's timeout,
  // arms a fresh one and schedules the next reply. BM_EventCancelHeavy
  // drains each batch, so its tombstones never outnumber live events;
  // here they would pile up for 5 simulated seconds without compaction.
  constexpr int kActors = 1250;
  Simulation sim;
  struct Actor {
    Simulation* sim;
    EventHandle timeout;
    std::uint32_t x;
    void fire() {
      timeout.cancel();
      timeout = sim->schedule(5 * kSecond, [] {});
      x = x * 1664525u + 1013904223u;
      sim->schedule(kMillisecond / 2 + (x >> 8) % kMillisecond,
                    [this] { fire(); });
    }
  };
  std::vector<Actor> actors(kActors);
  for (int i = 0; i < kActors; ++i) {
    Actor& a = actors[static_cast<std::size_t>(i)];
    a = Actor{&sim, EventHandle{}, static_cast<std::uint32_t>(i) + 1};
    a.fire();
  }
  for (auto _ : state) benchmark::DoNotOptimize(sim.step(~SimTime{0}));
  const Simulation::Counters c = sim.counters();
  state.counters["task_heap_fallbacks"] =
      static_cast<double>(c.task_heap_fallbacks);
  state.counters["live_events"] = static_cast<double>(sim.events_pending());
  state.counters["queued_peak"] = static_cast<double>(c.queued_peak);
  state.counters["compactions"] = static_cast<double>(c.compactions);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLongTimeoutChurn);

namespace {
struct CountingEndpoint final : NetEndpoint {
  std::uint64_t received = 0;
  void on_message(NetAddr, MessagePtr) override { ++received; }
};
}  // namespace

void BM_NetworkSendDeliver(benchmark::State& state) {
  const std::uint64_t fb_base = inline_task_stats::heap_fallbacks;
  // Message path cost: send + latency draw + FIFO clamp + delivery.
  Simulation sim;
  Network net(sim, NetworkParams{});
  constexpr int kEndpoints = 16;
  CountingEndpoint eps[kEndpoints];
  for (auto& e : eps) net.attach(&e);
  constexpr int kBatch = 1024;
  std::uint32_t x = 1;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      x = x * 1664525u + 1013904223u;
      const NetAddr from = static_cast<NetAddr>(x % kEndpoints);
      const NetAddr to =
          static_cast<NetAddr>((x / kEndpoints) % kEndpoints);
      net.send(from, to, std::make_unique<Message>(MsgType::kHeartbeat));
    }
    sim.run();
  }
  std::uint64_t total = 0;
  for (auto& e : eps) total += e.received;
  benchmark::DoNotOptimize(total);
  state.counters["task_heap_fallbacks"] = static_cast<double>(
      inline_task_stats::heap_fallbacks - fb_base);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_QueueServerChurn(benchmark::State& state) {
  const std::uint64_t fb_base = inline_task_stats::heap_fallbacks;
  // Serialized-resource model: submit bursts against a busy server.
  Simulation sim;
  QueueServer server(sim, "bench");
  constexpr int kBatch = 1024;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      server.submit(100, [&sink] { ++sink; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["task_heap_fallbacks"] = static_cast<double>(
      inline_task_stats::heap_fallbacks - fb_base);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_QueueServerChurn);

void BM_BTreeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    DirBTree tree(32);
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      tree.insert("key" + std::to_string(i), DirRecord{1, 1, false},
                  nullptr);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000);

void BM_BTreeFind(benchmark::State& state) {
  DirBTree tree(32);
  for (int i = 0; i < 10000; ++i) {
    tree.insert("key" + std::to_string(i), DirRecord{1, 1, false}, nullptr);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.find("key" + std::to_string(rng.uniform(10000)), nullptr));
  }
}
BENCHMARK(BM_BTreeFind);

void BM_CacheLookup(benchmark::State& state) {
  FsTree tree;
  FsNode* dir = tree.mkdir(tree.root(), "d");
  MetadataCache cache(5000);
  cache.insert(tree.root(), InsertKind::kDemand, true, 0);
  cache.insert(dir, InsertKind::kPrefix, true, 0);
  std::vector<InodeId> inos;
  for (int i = 0; i < 4000; ++i) {
    FsNode* f = tree.create_file(dir, "f" + std::to_string(i));
    cache.insert(f, InsertKind::kDemand, true, 0);
    inos.push_back(f->ino());
  }
  Rng rng(5);
  SimTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.lookup(inos[rng.uniform(inos.size())], ++now));
  }
}
BENCHMARK(BM_CacheLookup);

// --- Cache hot-path benches (the per-request cost every simulated op
// pays; the regression gate for cache-core refactors) ----------------------

/// Flat working set under one directory, cache sized to hold all of it.
struct CacheBenchFixture {
  FsTree tree;
  FsNode* dir;
  std::vector<FsNode*> files;

  explicit CacheBenchFixture(int n) {
    dir = tree.mkdir(tree.root(), "d");
    files.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      files.push_back(tree.create_file(dir, "f" + std::to_string(i)));
    }
  }

  void populate(MetadataCache& cache, int n) {
    cache.insert(tree.root(), InsertKind::kDemand, true, 0);
    cache.insert(dir, InsertKind::kPrefix, true, 0);
    for (int i = 0; i < n; ++i) {
      cache.insert(files[static_cast<std::size_t>(i)], InsertKind::kDemand,
                   true, 0);
    }
  }
};

void BM_CacheLookupHit(benchmark::State& state) {
  CacheBenchFixture fx(4000);
  MetadataCache cache(5000);
  fx.populate(cache, 4000);
  Rng rng(5);
  SimTime now = 0;
  for (auto _ : state) {
    FsNode* f = fx.files[rng.uniform(fx.files.size())];
    benchmark::DoNotOptimize(cache.lookup(f->ino(), ++now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  // Working set twice the cache: every insert of a cold item evicts the
  // LRU one (insert + eviction scan + teardown per iteration).
  CacheBenchFixture fx(8000);
  MetadataCache cache(4000);
  fx.populate(cache, 4000);
  SimTime now = 0;
  std::size_t next = 4000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.insert(fx.files[next], InsertKind::kDemand,
                                          true, ++now));
    if (++next == fx.files.size()) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertEvict);

void BM_CacheMixedOps(benchmark::State& state) {
  // The per-request blend an MDS performs: mostly hit lookups, some
  // misses, peeks, demand upgrades, inserts-with-eviction, erases — plus
  // the metrics sampler reading prefix_fraction at intervals.
  CacheBenchFixture fx(8000);
  MetadataCache cache(4000);
  fx.populate(cache, 4000);
  Rng rng(7);
  SimTime now = 0;
  std::uint64_t ticks = 0;
  double frac = 0.0;
  for (auto _ : state) {
    FsNode* f = fx.files[rng.uniform(fx.files.size())];
    const double action = rng.uniform_double();
    if (action < 0.55) {
      CacheEntry* e = cache.lookup(f->ino(), ++now);
      if (e != nullptr) cache.mark_demand_access(e);
    } else if (action < 0.75) {
      benchmark::DoNotOptimize(cache.peek(f->ino()));
    } else if (action < 0.95) {
      benchmark::DoNotOptimize(
          cache.insert(f, InsertKind::kDemand, true, ++now));
    } else {
      cache.erase(f->ino());
    }
    if ((++ticks & 1023u) == 0) frac += cache.prefix_fraction();
  }
  benchmark::DoNotOptimize(frac);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMixedOps);

void BM_JournalAppend(benchmark::State& state) {
  // The MDS update-commit pattern on a full journal: uniform appends over
  // a working set four times the log, so the tail mixes live writebacks
  // with holes left by superseded entries.
  constexpr std::size_t kCapacity = 4000;
  std::uint64_t written = 0;
  BoundedJournal journal(kCapacity, [&](InodeId) { ++written; });
  Rng rng(13);
  for (InodeId ino = 1; ino <= kCapacity; ++ino) journal.append(ino);
  for (auto _ : state) journal.append(1 + rng.uniform(4 * kCapacity));
  state.counters["writebacks"] = static_cast<double>(written);
  state.counters["absorption"] = journal.absorption_rate();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalAppend);

void BM_NamespaceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    FsTree tree;
    NamespaceParams params;
    params.num_users = 32;
    params.nodes_per_user = 300;
    generate_namespace(tree, params);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_NamespaceGeneration)->Unit(benchmark::kMillisecond);

void BM_FsTreeRenameInDir(benchmark::State& state) {
  // Rename a random child of one directory to a random new name: an
  // ordered erase plus an ordered insert at unrelated positions. The
  // directory keeps its size and nothing is tombstoned, so the case
  // measures the child container at a fixed directory size.
  const auto n = static_cast<std::size_t>(state.range(0));
  FsTree tree;
  FsNode* dir = tree.mkdir(tree.root(), "d");
  std::vector<FsNode*> kids;
  for (std::size_t i = 0; i < n; ++i) {
    kids.push_back(tree.create_file(dir, "k" + std::to_string(i * 7919)));
  }
  Rng rng(11);
  for (auto _ : state) {
    FsNode* node = kids[rng.uniform(n)];
    benchmark::DoNotOptimize(
        tree.rename(node, dir, "k" + std::to_string(rng.next() >> 20)));
  }
  state.counters["children"] = static_cast<double>(dir->child_count());
}
BENCHMARK(BM_FsTreeRenameInDir)->Arg(1000)->Arg(50000);

void BM_FullSimulationSecond(benchmark::State& state) {
  // End-to-end cost of one simulated second of a small busy cluster.
  for (auto _ : state) {
    SimConfig cfg;
    cfg.num_mds = 4;
    cfg.num_clients = 200;
    cfg.fs.num_users = 32;
    cfg.fs.nodes_per_user = 200;
    cfg.duration = kSecond;
    cfg.warmup = 0;
    ClusterSim cluster(cfg);
    cluster.run();
    benchmark::DoNotOptimize(cluster.metrics().total_replies());
  }
}
BENCHMARK(BM_FullSimulationSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdsim

BENCHMARK_MAIN();
