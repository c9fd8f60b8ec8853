// Trace record & replay demo (paper section 7, future work): capture the
// exact metadata operation stream of a live run, persist it with its
// namespace seed, then replay it — against a different partitioning
// strategy — and compare apples to apples on identical request streams.
//
//   ./build/examples/trace_replay [trace.csv]
#include <iostream>
#include <string>

#include "common/csv.h"
#include "common/table.h"
#include "core/cluster.h"
#include "workload/trace.h"

using namespace mdsim;

namespace {

constexpr std::uint64_t kSeed = 1234;

SimConfig base_config(StrategyKind strategy) {
  SimConfig cfg;
  cfg.strategy = strategy;
  cfg.num_mds = 4;
  cfg.num_clients = 0;  // clients are attached by hand below
  cfg.seed = kSeed;
  cfg.fs.seed = kSeed;
  cfg.fs.num_users = 32;
  cfg.fs.nodes_per_user = 250;
  cfg.warmup = 0;
  return cfg;
}

struct ReplayResult {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double mean_latency_ms = 0.0;
  std::size_t skipped = 0;
};

ReplayResult replay_on(StrategyKind strategy, const Trace& trace) {
  ClusterSim cluster(base_config(strategy));
  cluster.run_until(0);  // build the matching snapshot (same seed)
  TraceWorkload replay(cluster.tree(), trace);

  ClientCohort clients(cluster.sim(), cluster.network(), cluster.tree(),
                       replay, cluster.partition(), cluster.dirfrag(),
                       trace.num_clients(), /*first_id=*/0, cluster.num_mds(),
                       kSeed);
  for (int c = 0; c < trace.num_clients(); ++c) {
    clients.set_uid(c, 100 + static_cast<std::uint32_t>(c % 32));
  }
  clients.start();
  cluster.sim().run_until(10 * 60 * kSecond);  // run the trace dry

  const ClientStats totals = clients.totals();
  ReplayResult r;
  r.completed = totals.ops_completed;
  r.failed = totals.ops_failed;
  r.mean_latency_ms = totals.latency_seconds.mean() * 1e3;
  r.skipped = replay.skipped();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path =
      argc > 1 ? argv[1] : std::string("/tmp/mdsim_demo_trace.csv");

  // 1. Record: run a live general-purpose workload and capture its stream.
  std::cout << "Recording a 20-client general-purpose run...\n";
  Trace trace;
  {
    FsTree tree;
    SimConfig cfg = base_config(StrategyKind::kDynamicSubtree);
    NamespaceInfo info = generate_namespace(tree, cfg.fs);
    RecordingWorkload rec(
        std::make_unique<GeneralWorkload>(tree, info.user_roots));
    Rng rng(kSeed);
    Operation op;
    for (int i = 0; i < 8000; ++i) rec.next(i % 20, 0, rng, &op);
    trace = rec.take_trace();
  }
  trace.save(trace_path);
  std::cout << "Saved " << trace.size() << " events for "
            << trace.num_clients() << " clients to " << trace_path << "\n";

  // 2. Replay the identical stream against every strategy.
  const Trace loaded = Trace::load(trace_path);
  ConsoleTable table(
      {"strategy", "completed", "failed", "latency_ms", "skipped"});
  for (StrategyKind k :
       {StrategyKind::kDynamicSubtree, StrategyKind::kStaticSubtree,
        StrategyKind::kDirHash, StrategyKind::kFileHash,
        StrategyKind::kLazyHybrid}) {
    const ReplayResult r = replay_on(k, loaded);
    table.add_row({strategy_name(k), std::to_string(r.completed),
                   std::to_string(r.failed),
                   fmt_double(r.mean_latency_ms, 2),
                   std::to_string(r.skipped)});
  }
  table.print("One trace, five strategies (identical request streams)");
  std::cout << "\nThe trace pins the op stream, so latency differences are "
               "purely the strategies' doing — the methodology the paper's "
               "future-work section calls for.\n";
  return 0;
}
