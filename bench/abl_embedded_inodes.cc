// Ablation A: embedded inodes / whole-directory prefetch on vs off.
//
// The paper attributes the FileHash-vs-DirHash gap to exactly this
// mechanism ("the benefits of this approach are best seen by contrasting
// the performance of the directory and file hashing strategies, which are
// otherwise identical", section 5.3). Here we isolate it on a static
// subtree partition: identical partition, identical workload, only the
// storage granularity changes.
#include "bench_util.h"
#include "core/sharded_cluster.h"

using namespace mdsim;
using namespace mdsim::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Ablation A — embedded inodes / directory-granularity prefetch",
         "paper: sections 4.5 and 5.3 (FileHash vs DirHash contrast)");

  CsvWriter csv(csv_path("abl_embedded_inodes"));
  csv.header({"strategy", "embedded", "avg_mds_throughput_ops", "hit_rate",
              "mean_latency_ms", "disk_reads_per_reply"});

  ConsoleTable table({"config", "tput", "hit%", "latency_ms",
                      "reads/reply"});
  std::vector<Run<>> runs;
  for (StrategyKind k :
       {StrategyKind::kStaticSubtree, StrategyKind::kDirHash}) {
    for (int embedded : {1, 0}) {
      SimConfig cfg = scaled_system_config(k, args.quick ? 4 : 8);
      cfg.force_whole_dir_io = embedded;
      runs.push_back({cfg, [k, embedded](const SimConfig& cfg, Output<>& o) {
        double reads_per_reply = 0.0;
        const RunResult r = run_one(cfg, [&](ShardedClusterSim& run) {
          std::uint64_t reads = 0, replies = 0;
          for (int s = 0; s < run.num_shards(); ++s) {
            ClusterSim& cluster = run.shard(s);
            for (int i = 0; i < cluster.num_mds(); ++i) {
              reads += cluster.mds(i).disk().reads();
              replies += cluster.mds(i).stats().replies_sent;
            }
          }
          reads_per_reply = replies > 0 ? static_cast<double>(reads) /
                                              static_cast<double>(replies)
                                        : 0.0;
        });
        o.rows.field(strategy_name(k))
            .field(std::int64_t{embedded})
            .field(r.avg_mds_throughput)
            .field(r.hit_rate)
            .field(r.mean_latency_ms)
            .field(reads_per_reply);
        o.rows.end_row();
        o.value = {std::string(strategy_name(k)) +
                       (embedded ? "+embedded" : "+per-inode"),
                   fmt_double(r.avg_mds_throughput, 0),
                   fmt_double(r.hit_rate * 100, 1),
                   fmt_double(r.mean_latency_ms, 1),
                   fmt_double(reads_per_reply, 3)};
      }});
    }
  }
  for (auto& o : run_all(args, std::move(runs), &csv)) table.add_row(o.value);
  table.print("Embedded inodes on/off");
  std::cout << "\nExpected: per-inode I/O costs a large throughput factor "
               "on both partitions (no prefetch, one transaction per "
               "inode).\nCSV: "
            << csv_path("abl_embedded_inodes") << "\n";
  return 0;
}
