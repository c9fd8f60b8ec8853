// Metadata server node.
//
// One MdsNode models a complete metadata server (paper section 5.1: "our
// metadata server prototype implements or simulates most features of the
// system design, including metadata updates, callback-based cache
// coherence (within the MDS cluster only), embedded inodes, a two-tiered
// storage mechanism, dynamic subtree partitioning and load balancing, and
// traffic control").
//
// Requests are processed as small continuation-passing state machines: a
// TraversalTask walks the target's prefix chain, filling cache misses
// either from the node's own disk (when this node is the authority) or by
// requesting replicas from the responsible peer; once the chain is
// resident the op-specific handler runs and a reply (with traffic-control
// location hints) is sent.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/metadata_cache.h"
#include "common/fault_log.h"
#include "mds/admission.h"
#include "common/stats.h"
#include "common/types.h"
#include "fstree/tree.h"
#include "mds/dirfrag.h"
#include "mds/messages.h"
#include "mds/params.h"
#include "net/network.h"
#include "sim/queue_server.h"
#include "sim/simulation.h"
#include "storage/anchor_table.h"
#include "storage/disk_model.h"
#include "storage/journal.h"
#include "storage/object_store.h"
#include "strategy/lazy_hybrid.h"
#include "strategy/partition.h"

namespace mdsim {

class MdsNode;

/// Shared cluster-wide state wired up by the cluster builder. The ground
/// truth tree, the tier-2 object pool and the partition map are logically
/// shared (the partition is knowledge every MDS converges on; client
/// ignorance — not MDS ignorance — is the modelled source of misdirection,
/// as in the paper).
struct ClusterContext {
  Simulation& sim;
  Network& net;
  FsTree& tree;
  ObjectStore& store;
  Partitioner& partition;
  DirFragRegistry& dirfrag;
  AnchorTable& anchors;
  LazyHybridManager* lazy = nullptr;  // only for LazyHybrid runs
  StrategyTraits traits;
  MdsParams params;
  int num_mds = 0;
  FaultLog& faults;  // failure-lifecycle incident log
  std::vector<MdsNode*> nodes;  // index = MdsId = NetAddr
};

struct MdsStats {
  std::uint64_t requests_received = 0;  // client requests (incl. forwarded)
  std::uint64_t client_requests = 0;    // first-hop arrivals (hops == 0)
  std::uint64_t replies_sent = 0;
  std::uint64_t forwards = 0;
  std::uint64_t failures = 0;
  std::uint64_t replica_grants = 0;
  std::uint64_t replica_requests_sent = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t updates_journaled = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t items_migrated_out = 0;
  std::uint64_t items_migrated_in = 0;
  std::uint64_t migrations_aborted = 0;     // exporter gave up pre-commit
  std::uint64_t migrations_rolled_back = 0; // importer discarded install
  std::uint64_t migration_timeouts = 0;     // watchdog firings
  std::uint64_t peer_down_detections = 0;   // peers declared dead
  std::uint64_t takeovers = 0;              // failed peers absorbed
  std::uint64_t takeover_warm_items = 0;    // items installed via 4.6 replay
  std::uint64_t restart_replayed_items = 0; // own-journal items on rejoin
  std::uint64_t replica_fetch_timeouts = 0; // grants that never came
  std::uint64_t attr_gather_timeouts = 0;   // reads resumed without deltas
  std::uint64_t lh_traversal_fixups = 0;
  std::uint64_t attr_local_updates = 0;   // setattrs absorbed at replicas
  std::uint64_t attr_flushes_applied = 0; // delta batches applied as auth
  std::uint64_t attr_callbacks = 0;       // reads that called deltas in
  std::uint64_t move_sweeps = 0;          // directory-move invalidations run
  std::uint64_t move_sweep_nodes = 0;     // cache entries those sweeps examined
  std::uint64_t foreign_drop_visits = 0;  // entries dirfrag drops examined

  // Partition tolerance (leases, epochs, quorum takeover).
  std::uint64_t writes_parked_fenced = 0;   // updates parked while fenced
  std::uint64_t stale_epoch_rejects = 0;    // old-regime messages refused
  std::uint64_t takeovers_deferred = 0;     // grace/quorum stalled a sweep
  std::uint64_t reconcile_dropped_items = 0; // cache items shed on rejoin
  std::uint64_t duplicate_updates_dropped = 0;  // request-id dedup hits
  std::uint64_t duplicate_prepares_dropped = 0; // migration dedup hits

  // Overload protection (admission gate; all zero with protection off).
  std::uint64_t requests_shed_queue = 0;     // CPU/disk queue bound hit
  std::uint64_t requests_shed_admission = 0; // token bucket denied
  std::uint64_t requests_shed_deadline = 0;  // dead-on-arrival drops
  std::uint64_t rejects_sent = 0;            // Rejected{retry_after} replies

  // GIGA+ incremental directory splitting.
  std::uint64_t giga_redirects_sent = 0;  // stale-bitmap corrections sent
  std::uint64_t dirfrag_resyncs = 0;      // heartbeat-gen catch-up sweeps
};

class MdsNode final : public NetEndpoint {
 public:
  MdsNode(ClusterContext& ctx, MdsId id);
  ~MdsNode() override;

  MdsNode(const MdsNode&) = delete;
  MdsNode& operator=(const MdsNode&) = delete;

  /// Called once by the cluster builder after every node exists: caches
  /// the root inode (pinned; known to every node) and starts the
  /// heartbeat if this strategy balances load.
  void bootstrap();

  void on_message(NetAddr from, MessagePtr msg) override;

  MdsId id() const { return id_; }
  MdsStats& stats() { return stats_; }
  const MetadataCache& cache() const { return cache_; }
  MetadataCache& cache() { return cache_; }
  DiskModel& disk() { return disk_; }
  const BoundedJournal& journal() const { return journal_; }
  double current_load() const { return last_load_; }

  /// Authority for `node`, honouring dynamic directory fragmentation.
  MdsId authority_for(const FsNode* node) const;

  /// True if this node currently believes `ino` is replicated everywhere
  /// (traffic control).
  bool is_replicated_everywhere(InodeId ino) const {
    const EntryAux* a = cache_.aux_peek(ino);
    return a != nullptr && a->replicated_everywhere;
  }

  /// Test hooks.
  std::size_t frozen_subtrees() const { return frozen_.size(); }
  std::size_t deferred_requests() const { return deferred_.size(); }
  /// Subtrees this node imported, with the import time (residency).
  const std::unordered_map<InodeId, SimTime>& imported_subtrees() const {
    return imported_;
  }
  /// Force a migration (tests/examples); returns false if busy/invalid.
  bool migrate_subtree(FsNode* root, MdsId target);
  /// Replica holders registered for an inode this node is authority for.
  std::size_t replica_holders(InodeId ino) const;
  /// Current directory-op temperature (dirfrag criterion) for a dir.
  double dir_op_temperature(InodeId dir, SimTime now) const {
    const EntryAux* a = cache_.aux_peek(dir);
    return (a != nullptr && a->has_dir_temp) ? a->dir_op_temp.get(now) : 0.0;
  }
  /// Whole-directory fetch cost this node would charge for `node` right
  /// now (exercises the dirfrag shard-read accounting).
  std::uint32_t fetch_cost_probe(FsNode* node) { return fetch_cost_nodes(node); }
  /// Run the post-transition dentry shed directly (tests).
  void drop_foreign_dentries_probe(FsNode* dir) { drop_foreign_dentries(dir); }
  /// Entries a directory-move invalidation of `moved` would erase, in
  /// erase order (tests; nothing is erased or counted).
  std::vector<CacheEntry*> move_victims_probe(const FsNode* moved) {
    std::vector<CacheEntry*> victims;
    collect_move_victims(moved, victims);
    return victims;
  }
  std::uint64_t dirfrag_seen_gen() const { return dirfrag_seen_gen_; }
  // ---- failure lifecycle (mds_node.cc, recovery.cc) -----------------------
  /// Mark the node failed (it is also taken off the network by the
  /// cluster). While failed, incoming messages are dropped and the
  /// heartbeat is silent — survivors detect the crash from the silence.
  /// `warm` is the crash's takeover mode: the heirs replay this node's
  /// journal only for a warm crash.
  void set_failed(bool failed, bool warm = true) {
    failed_ = failed;
    warm_takeover_ = warm;
  }
  bool failed() const { return failed_; }
  /// Fail-slow (gray failure) injection: scale this node's CPU and disk
  /// service times. The node keeps serving — slowly — which is exactly
  /// what makes gray failures harder than crashes: heartbeats still flow,
  /// so liveness detection never fires. 1.0/1.0 restores full speed.
  void set_fail_slow(double cpu_mult, double disk_mult) {
    cpu_.set_service_time_multiplier(cpu_mult);
    disk_.set_service_time_multiplier(disk_mult);
  }
  /// This node now believes `peer` dead (recovery.cc): it leaves the
  /// migration targets and the fragmented directories' dentry
  /// authorities, and the detection is counted and logged. Heartbeat
  /// silence calls it; without heartbeats the cluster does, at the crash.
  void peer_down(MdsId peer);
  /// This node believes `peer` alive again (no-op if it already did): the
  /// reverse of peer_down, logged as the incident's re-mark-up. The first
  /// heartbeat heard calls it; without heartbeats the cluster does, at
  /// the restart.
  void peer_up(MdsId peer);
  /// Redistribute a dead peer's delegations to the survivors this node
  /// believes alive and (warm crash) replay its journal into the heirs;
  /// hashed placements re-map rather than re-delegate, so there the
  /// coordinator alone replays it. Run by the coordinator, the lowest
  /// live id.
  void take_over_failed_peer(MdsId dead);
  /// Restart after a crash (recovery.cc): reset liveness views and stale
  /// protocol state, then replay the bounded journal against the object
  /// store (sequential log read + coalesced writebacks, real disk
  /// latency) and warm the cache with whatever this node still owns.
  /// Serving resumes immediately; `recovering()` is true until the
  /// replay completes.
  void restart();
  bool recovering() const { return recovering_; }
  /// Replay a bounded journal from shared storage (paper section 4.6): one
  /// sequential read of the log region, a CPU charge per item, then the
  /// install of every item this node owns. Takeover heirs replay the
  /// failed node's log; restart replays its own (`own_log`), which also
  /// writes the dirty directories back and ends the recovery.
  void warm_from_journal(std::vector<InodeId> log, bool own_log);
  /// Drop all cache state except the pinned root (cold rejoin after an
  /// outage; the node missed invalidations while it was down).
  void clear_cache_for_rejoin();
  /// Liveness view (tests): does this node currently believe `peer` is up?
  bool peer_alive(MdsId peer) const {
    return peer >= 0 && static_cast<std::size_t>(peer) < peer_alive_.size() &&
           peer_alive_[static_cast<std::size_t>(peer)] != 0;
  }
  // ---- gray-failure health scoring (balancer.cc) ---------------------------
  /// Does this node currently consider `peer` gray-degraded?
  bool peer_degraded(MdsId peer) const {
    return peer >= 0 &&
           static_cast<std::size_t>(peer) < peer_degraded_.size() &&
           peer_degraded_[static_cast<std::size_t>(peer)] != 0;
  }
  /// Has this node flagged *itself* (its own score crossed the threshold
  /// in its view of the cluster)? Self-degraded nodes volunteer load away.
  bool self_degraded() const { return peer_degraded(id_); }
  // ---- partition tolerance (recovery.cc) ----------------------------------
  /// Lease lost: writes are parked, migrations refused, reads served stale.
  bool fenced() const { return fenced_; }
  /// This node's partition-map view epoch (frozen while fenced).
  std::uint64_t view_epoch() const { return view_epoch_; }
  /// Adopt a newer map epoch (takeover coordinator's MDSMap-style
  /// broadcast; also gossiped on heartbeats). Fenced nodes ignore it —
  /// their view stays frozen until heal-time reconciliation.
  void observe_epoch(std::uint64_t epoch) {
    if (!fenced_ && epoch > view_epoch_) view_epoch_ = epoch;
  }
  /// Update requests parked by the fence (tests).
  std::size_t parked_requests() const { return parked_.size(); }
  /// Takeovers waiting out the grace period (tests).
  std::size_t pending_takeovers() const { return pending_takeover_.size(); }
  /// A double-commit transaction is in flight (tests).
  bool migrating() const {
    return outbound_ != nullptr || inbound_ != nullptr;
  }

  std::size_t cpu_queue_depth() const { return cpu_.queue_depth(); }
  /// CPU queue observer (depth high-water / mean depth / backlog stats).
  const QueueServer& cpu() const { return cpu_; }
  /// Restart the CPU queue's depth-observation window (warmup boundary).
  void reset_cpu_depth_stats(SimTime now) { cpu_.reset_depth_stats(now); }

 private:
  // ---- request context --------------------------------------------------
  /// One in-flight request's state machine context. Pooled: requests are
  /// recycled through a per-thread free list *without* running their
  /// destructors between uses, so chain/pinned/name keep their heap
  /// capacities and steady-state request dispatch performs no allocation.
  struct Request {
    ClientRequestMsg msg;
    NetAddr reply_to = kInvalidAddr;  // client address
    FsNode* target = nullptr;         // resolved at serve time
    FsNode* secondary = nullptr;
    std::vector<FsNode*> chain;       // root .. parent-of-target
    std::size_t chain_idx = 0;
    std::vector<CacheEntry*> pinned;
    bool counts_as_served = false;
    std::uint32_t refs = 0;          // intrusive count, owned by RequestPtr
    Request* pool_next = nullptr;    // free-list link while recycled
  };

  /// Per-thread recycler for Request contexts. Thread-static (not a node
  /// member) so callbacks still pending in a Simulation at teardown may
  /// release their requests safely regardless of destruction order; a
  /// request freed on a different worker thread than it was acquired on
  /// simply joins that thread's list (the sharded engine's window barrier
  /// orders the handoff).
  struct RequestPool {
    Request* head = nullptr;
    ~RequestPool() {
      while (head != nullptr) {
        Request* next = head->pool_next;
        delete head;
        head = next;
      }
    }
    static RequestPool& local() {
      thread_local RequestPool pool;
      return pool;
    }
  };

  /// shared_ptr stand-in with an intrusive count and pool-recycling
  /// release: the last reference returns the Request to the thread-local
  /// pool instead of the heap.
  class RequestPtr {
   public:
    RequestPtr() = default;
    RequestPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
    RequestPtr(const RequestPtr& o) : p_(o.p_) {
      if (p_ != nullptr) ++p_->refs;
    }
    RequestPtr(RequestPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
    RequestPtr& operator=(const RequestPtr& o) {
      if (p_ != o.p_) {
        reset();
        p_ = o.p_;
        if (p_ != nullptr) ++p_->refs;
      }
      return *this;
    }
    RequestPtr& operator=(RequestPtr&& o) noexcept {
      if (this != &o) {
        reset();
        p_ = o.p_;
        o.p_ = nullptr;
      }
      return *this;
    }
    ~RequestPtr() { reset(); }

    void reset() {
      if (p_ != nullptr && --p_->refs == 0) {
        RequestPool& pool = RequestPool::local();
        p_->pool_next = pool.head;
        pool.head = p_;
      }
      p_ = nullptr;
    }
    Request* get() const { return p_; }
    Request* operator->() const { return p_; }
    Request& operator*() const { return *p_; }
    explicit operator bool() const { return p_ != nullptr; }
    friend bool operator==(const RequestPtr& a, const RequestPtr& b) {
      return a.p_ == b.p_;
    }

   private:
    friend class MdsNode;
    Request* p_ = nullptr;
  };

  /// Acquire a recycled (or fresh) Request with clean state but warm
  /// capacities. msg is *not* fully reset: every call site assigns the
  /// whole ClientRequestMsg immediately after.
  static RequestPtr make_request() {
    RequestPool& pool = RequestPool::local();
    Request* r = pool.head;
    if (r != nullptr) {
      pool.head = r->pool_next;
    } else {
      r = new Request;
    }
    r->reply_to = kInvalidAddr;
    r->target = nullptr;
    r->secondary = nullptr;
    r->chain.clear();
    r->chain_idx = 0;
    r->pinned.clear();
    r->counts_as_served = false;
    r->refs = 1;
    r->pool_next = nullptr;
    RequestPtr p;
    p.p_ = r;
    return p;
  }

  // ---- dispatch (mds_node.cc) -------------------------------------------
  void handle_client_request(ClientRequestMsg&& msg, NetAddr reply_to);
  /// Duplicate-delivery check for updates; records the req id when new.
  bool is_duplicate_update(const ClientRequestMsg& msg);
  /// Overload admission (only consulted when ctx_.params.overload.enabled
  /// and the request is at first entry, hops == 0).
  AdmitVerdict admission_verdict(const ClientRequestMsg& msg);
  /// Account a shed and send the Rejected{retry_after} reply (deadline
  /// drops are silent — that client is already gone). Costs no CPU.
  void shed_request(const ClientRequestMsg& msg, NetAddr reply_to,
                    AdmitVerdict verdict);
  /// Post-dedup tail of request admission: trace, wrap, route.
  void admit_client_request(ClientRequestMsg&& msg, NetAddr reply_to);
  void route(RequestPtr req);
  void serve(RequestPtr req);
  void serve_target(RequestPtr req);
  void finish(RequestPtr req, bool success, InodeId result_ino);
  void fail(RequestPtr req);
  void reply(RequestPtr req, bool success, InodeId result_ino);
  void apply_update(RequestPtr req);
  void pin_entry(RequestPtr req, CacheEntry* e);
  void unpin_all(RequestPtr req);
  void charge_cpu(SimTime amount, InlineTask then);
  void charge_cpu(SimTime amount, TraceSpan span, InlineTask then);

  // ---- latency attribution (src/common/trace.h) ---------------------------
  /// Attribute [record.last, now) to `stage` for a traced request; no-op
  /// when the op carries no trace context (tracing off).
  void trace_mark(const ClientRequestMsg& m, TraceStage stage) {
    if (m.trace != nullptr) m.trace->advance(stage, ctx_.sim.now(), m.req_id);
  }
  /// Queue/service attribution handle for one of this request's resource
  /// visits. Empty (inert) when tracing is off.
  static TraceSpan trace_span(const ClientRequestMsg& m, TraceStage queue,
                              TraceStage service) {
    return TraceSpan{m.trace, m.req_id, queue, service};
  }
  TraceSpan cpu_span(const RequestPtr& req) const {
    return trace_span(req->msg, TraceStage::kCpuQueue,
                      TraceStage::kCpuService);
  }
  TraceSpan disk_span(const RequestPtr& req) const {
    return trace_span(req->msg, TraceStage::kDiskQueue,
                      TraceStage::kDiskService);
  }
  TraceSpan journal_span(const RequestPtr& req) const {
    return trace_span(req->msg, TraceStage::kJournalQueue,
                      TraceStage::kJournalService);
  }

  // ---- traversal engine (traversal.cc) ------------------------------------
  /// Continue walking req->chain from chain_idx; calls serve_target when
  /// the prefix chain is resident and permission-checked.
  void advance_traversal(RequestPtr req);
  /// Ensure `node` (whose parent chain is already cached here) is in the
  /// local cache, fetching from local disk. Calls `done(entry)`;
  /// entry == nullptr means the item vanished meanwhile.
  /// `single_item`: read just the one dentry (a B+tree lookup — used when
  /// serving replica grants) instead of the whole directory object with
  /// embedded-inode prefetch (used when serving requests with locality).
  /// `span`: attribution handle of the request initiating the fetch; when
  /// the fetch coalesces behind one already in flight the span is unused
  /// (joiners attribute their park time at resume instead).
  void fetch_local(FsNode* node, InsertKind kind,
                   std::function<void(CacheEntry*)> done,
                   bool single_item = false, TraceSpan span = {});
  /// Ask `auth` for a replica of `node`; insert and call done.
  void fetch_replica(FsNode* node, MdsId auth, InsertKind kind,
                     std::function<void(CacheEntry*)> done);
  void handle_replica_request(NetAddr from, const ReplicaRequestMsg& m);
  void handle_replica_grant(NetAddr from, const ReplicaGrantMsg& m);
  /// Insert `node` locally with its prefix chain resident; used by the
  /// grant protocol and migration imports. Missing prefixes are filled by
  /// local fetches or replica requests. `have_payload` means the item's
  /// bits arrived over the wire (grant / migration transfer), so the
  /// final insert costs no disk I/O.
  void insert_with_prefixes(FsNode* node, InsertKind kind, bool authoritative,
                            bool have_payload,
                            std::function<void(CacheEntry*)> done);
  /// Insert into the cache, restoring any ancestors that were evicted
  /// while an async fetch was in flight (no new I/O — the bits were just
  /// resident; replicas re-register at their authority as bookkeeping).
  CacheEntry* cache_insert_anchored(FsNode* node, InsertKind kind,
                                    bool authoritative);
  std::uint32_t fetch_cost_nodes(FsNode* node);
  /// Insert every not-yet-cached child of `dir` this node is responsible
  /// for, as prefetched (probation-segment) entries.
  void prefetch_children(FsNode* dir);

  // ---- journal writeback batching (mds_node.cc) ----------------------------
  /// Journal expiry: queue the inode for a coalesced tier-2 writeback.
  void queue_writeback(InodeId ino);
  void flush_writebacks();

  // ---- coherence (coherence.cc) -------------------------------------------
  void register_replica(InodeId ino, MdsId holder);
  void unregister_replica(InodeId ino, MdsId holder);
  void invalidate_replicas(InodeId ino, bool removed);
  void handle_invalidate(const CacheInvalidateMsg& m);
  /// Victims of a directory-move invalidation of `moved`, deepest first.
  /// Returns the number of cache entries examined.
  std::uint64_t collect_move_victims(const FsNode* moved,
                                     std::vector<CacheEntry*>& victims);
  void handle_replica_drop(NetAddr from, const ReplicaDropMsg& m);
  void on_cache_evict(const CacheEntry& e);

  // ---- balancer (balancer.cc) ---------------------------------------------
  void start_heartbeat();
  void heartbeat_tick();
  double compute_load();
  void handle_heartbeat(const HeartbeatMsg& m);
  void maybe_rebalance();
  /// Gray-failure detection sweep, run on the heartbeat when
  /// params.health.enabled: refresh the self-measured service lag EWMA,
  /// then compare every alive peer's score against the cluster median and
  /// flag/unflag with hysteresis (first detector opens the incident).
  void health_tick(SimTime now);
  /// The whole tree delegated at `ino` if it may be exported now:
  /// delegated here, past the residency window, not the root, not frozen.
  /// Otherwise nullptr.
  FsNode* exportable_delegation(InodeId ino, SimTime now) const;
  FsNode* pick_export_subtree(double excess_fraction);
  /// Additional subtrees a self-degraded volunteer ships alongside the
  /// primary pick, hottest first, non-overlapping, capped by
  /// kEvacuationMaxRoots. Empty for healthy-path balancing.
  std::vector<FsNode*> pick_evacuation_extras(FsNode* primary);
  void bump_subtree_load(const FsNode* node);

  // ---- migration (migration.cc) ---------------------------------------------
  bool subtree_frozen(const FsNode* node) const;
  void defer(RequestPtr req);
  void flush_deferred();
  void begin_migration(FsNode* root, MdsId target,
                       std::vector<FsNode*> extra_roots = {});
  void handle_migrate_prepare(NetAddr from, const MigratePrepareMsg& m);
  void send_migrate_ack(MdsId exporter, std::uint64_t mig_id, bool accepted);
  /// Importer refuses the inbound migration it is installing: record its
  /// id as resolved, drop the record and nack the exporter.
  void refuse_inbound();
  /// Anchor the next unanchored extra root of the inbound batch (resuming
  /// at InboundMigration::anchor_next); installs the items and acks once
  /// every root is anchored. Any anchor failure fails the whole
  /// transaction — the exporter keeps authority over every root, so a
  /// partial install must never ack.
  void continue_inbound_anchoring(std::uint64_t mig_id,
                                  std::shared_ptr<std::vector<InodeId>> items);
  void handle_migrate_ack(NetAddr from, const MigrateAckMsg& m);
  void handle_migrate_commit(NetAddr from, const MigrateCommitMsg& m);
  void handle_migrate_abort(const MigrateAbortMsg& m);
  /// Exporter gives up on an unacked migration: unfreeze, drain deferred
  /// requests, tell the importer to roll back. Safe because the partition
  /// map has not flipped — this node never stopped being the authority.
  void abort_outbound_migration();
  /// Importer resolves a migration whose commit never arrived by
  /// consulting the shared partition map: if the map says this node, the
  /// exporter passed the commit point before dying — finalize; otherwise
  /// roll back the installed state.
  void resolve_inbound_migration();

  // ---- failure detection & recovery (recovery.cc) ---------------------------
  /// Heartbeat-piggybacked watchdog sweep: peer liveness, migration
  /// deadlines, wedged replica fetches, stale attr gathers. Costs nothing
  /// while everything is healthy (all checks are reads that find nothing).
  void failure_tick(SimTime now);
  void check_peer_liveness(SimTime now);
  void on_peer_detected_down(MdsId peer);
  /// The takeover coordinator: the lowest id this node believes alive.
  MdsId coordinator() const;

  // ---- partition tolerance (recovery.cc) -----------------------------------
  /// Lease/quorum machinery is active only where it can work: subtree
  /// strategies with heartbeats and enough nodes for a strict majority.
  bool lease_quorum_on() const {
    return subtree_map_ != nullptr && ctx_.traits.load_balancing &&
           ctx_.num_mds >= 3;
  }
  /// Peers whose latest heard heartbeat (within the lease window) listed
  /// us alive, plus self. A strict majority keeps the lease.
  int quorum_ackers(SimTime now) const;
  void evaluate_lease(SimTime now);
  void fence();
  void unfence_and_reconcile();
  /// Executed on the watchdog: cancel takeovers whose peer came back,
  /// then — quorum permitting, grace elapsed, lowest live id — re-delegate.
  void sweep_pending_takeovers(SimTime now);
  /// Park an update while fenced (re-routed on unfence).
  void park(RequestPtr req);
  /// Authority as this node sees it: the shared map, unless our view is
  /// behind (fenced or not-yet-gossiped), in which case the map as of our
  /// frozen epoch.
  MdsId map_authority(const FsNode* node) const;

  // ---- traffic control (traffic_control.cc) ---------------------------------
  void note_popularity(RequestPtr req);
  void maybe_replicate(FsNode* node, CacheEntry* entry);
  void maybe_unreplicate();
  void push_unsolicited_replica(FsNode* node, MdsId to);
  void fill_hints(const RequestPtr& req, ClientReplyMsg& out);
  void maybe_fragment_dir(FsNode* dir, CacheEntry* entry);
  void handle_dirfrag_notify(const DirFragNotifyMsg& m);
  /// Drop cached children of `dir` whose dentry authority is no longer
  /// this node (after a fragment/unfragment transition).
  void drop_foreign_dentries(FsNode* dir);
  /// Exact per-partition bookkeeping at the node applying a namespace
  /// op: count delta, partition heat, and (on a create) the split check.
  void giga_note_namespace_op(FsNode* dir, const std::string& name,
                              int delta);
  /// Split the partition `name` hashes into if it crossed its threshold
  /// (runs at the node that just applied a create into it).
  void maybe_split_partition(FsNode* dir, const std::string& name);
  /// Giga merge policy: fold cold leaf partitions back, one per sweep,
  /// and unhash once fully merged and cold (home node only).
  void maybe_merge_partitions(FsNode* dir);
  void broadcast_dirfrag_notify(InodeId dir, bool fragmented);
  /// Heartbeat carried a newer registry generation than we've applied:
  /// re-run drop_foreign_dentries over every directory changed since.
  void dirfrag_resync(std::uint64_t peer_gen);
  /// Reply to a mis-routed dentry op with the fresh bitmap (then the
  /// caller still forwards the op).
  void send_giga_redirect(const ClientRequestMsg& m, InodeId dir);

  // ---- distributed attribute updates (attr_updates.cc) ---------------------
  /// Absorb a setattr at a replica holder (GPFS-style, section 4.2);
  /// returns false if the normal authority path must be taken.
  bool try_local_attr_update(RequestPtr req);
  void schedule_attr_flush();
  void flush_attr_updates();
  void flush_attr_updates_for(InodeId ino);
  void handle_attr_dirty(NetAddr from, const AttrDirtyMsg& m);
  void handle_attr_flush(NetAddr from, const AttrFlushMsg& m);
  void handle_attr_callback(const AttrCallbackMsg& m);
  /// Authority read path: if remote deltas are outstanding, call them in
  /// and park the request; returns true if parked.
  bool gather_remote_attrs(RequestPtr req);
  void resume_attr_waiters(InodeId ino);

  // ---- LH (traversal.cc) ------------------------------------------------------
  void handle_lh_update(const LazyHybridUpdateMsg& m);
  void lh_drain_tick();

  ClusterContext& ctx_;
  MdsId id_;
  QueueServer cpu_;
  DiskModel disk_;
  MetadataCache cache_;
  BoundedJournal journal_;
  MdsStats stats_;
  /// Overload admission token bucket (inert unless overload.enabled).
  TokenBucket admit_bucket_;

  // Per-inode protocol state (fetch coalescing, replica registry,
  // traffic-control replication, dirfrag temperature, pending attr
  // deltas) lives in the cache's EntryAux sidecar, reached through the
  // same index probe as the entry itself.

  // Balancer state.
  std::vector<double> peer_loads_;
  double last_load_ = 0.0;
  SimTime last_migration_ = 0;
  std::uint64_t bal_prev_replies_ = 0;
  std::uint64_t bal_prev_misses_ = 0;
  SimTime bal_prev_time_ = 0;
  SimTime bal_prev_cpu_busy_ = 0;
  SimTime bal_prev_disk_busy_ = 0;
  std::unordered_map<InodeId, SimTime> imported_;  // root ino -> import time
  std::unordered_map<InodeId, DecayCounter> subtree_load_;

  // Migration state. Both sides carry a deadline checked on the heartbeat
  // (no per-migration timer events, so healthy runs are untouched).
  struct OutboundMigration {
    std::uint64_t id;
    InodeId root;
    /// Extra subtree roots in the same transaction (volunteer evacuation).
    std::vector<InodeId> extra_roots;
    MdsId target;
    std::vector<InodeId> items;
    SimTime deadline = 0;
  };
  /// Importer-side record of an unfinished double-commit: kept from the
  /// prepare until the commit (or abort / timeout resolution), so a dead
  /// exporter can never strand half-installed authoritative state.
  struct InboundMigration {
    std::uint64_t id;
    MdsId exporter;
    InodeId root;
    /// Extra subtree roots in the same transaction (volunteer evacuation).
    std::vector<InodeId> extra_roots;
    /// Next extra root whose prefix chain still needs anchoring (the
    /// anchors may fetch, so the batch is walked asynchronously).
    std::size_t anchor_next = 0;
    std::vector<InodeId> items;
    SimTime deadline = 0;
  };
  std::unordered_set<InodeId> frozen_;
  std::deque<RequestPtr> deferred_;
  std::unique_ptr<OutboundMigration> outbound_;
  std::unique_ptr<InboundMigration> inbound_;
  std::uint64_t next_migration_id_ = 1;
  std::uint64_t next_xid_ = 1;
  double lh_drain_carry_ = 0.0;  // fractional drain budget between ticks

  bool failed_ = false;
  // The current crash's takeover mode; true while up, so a live node
  // falsely detected dead (partition) is taken over warm.
  bool warm_takeover_ = true;
  bool recovering_ = false;

  // Peer liveness, derived from heartbeat arrivals (survivors detect a
  // dead peer from silence; the first heartbeat heard marks it back up).
  std::vector<std::uint8_t> peer_alive_;
  std::vector<SimTime> peer_last_hb_;

  // Gray-failure health scores (empty vectors unless params.health.enabled;
  // sized lazily on the first heartbeat tick so disabled runs allocate
  // nothing). peer_health_[p] is the EWMA'd lag score for peer p (own
  // slot scored from local backlog); peer_degraded_[p] is the hysteresis
  // flag. svc_ewma_self_ is the self-measured service lag stamped on
  // outgoing heartbeats.
  std::vector<double> peer_health_;
  std::vector<std::uint8_t> peer_degraded_;
  double svc_ewma_self_ = 0.0;

  // Highest dirfrag-registry generation this node has applied (its own
  // transitions and notifies count only via the heartbeat catch-up; see
  // dirfrag_resync()).
  std::uint64_t dirfrag_seen_gen_ = 0;

  // Partition tolerance. The subtree map (null for hash strategies), this
  // node's frozen-while-fenced view of its epoch, and the authority lease:
  // peer_ack_time_[p] is the last time peer p's heartbeat listed us alive.
  SubtreePartition* subtree_map_ = nullptr;
  std::uint64_t view_epoch_ = 1;
  bool fenced_ = false;
  std::vector<SimTime> peer_ack_time_;
  /// Updates parked while fenced; re-routed when the lease renews.
  std::deque<RequestPtr> parked_;
  /// Detected-down peers awaiting quorum-gated takeover: peer -> earliest
  /// re-delegation time (detection + takeover_grace).
  std::unordered_map<MdsId, SimTime> pending_takeover_;
  /// Duplicate-delivery dedup: highest update req_id seen per client
  /// address (ids are per-client monotone and retries re-issue under
  /// fresh ids, so an id at or below the high-water mark is an exact
  /// network duplicate). Checked only at network entry, so internal
  /// re-routing (deferred / parked requests) is never miscounted.
  /// Local (dense) addresses index the vector directly; cross-shard
  /// global addresses use the sparse fallback map.
  std::vector<std::uint64_t> seen_update_req_;
  std::unordered_map<NetAddr, std::uint64_t> seen_update_req_global_;
  /// Highest resolved inbound migration id per exporter (dedup for
  /// duplicated prepares arriving after the migration finished).
  std::unordered_map<MdsId, std::uint64_t> inbound_done_;

  // Replica fetches with a grant outstanding: ino -> give-up deadline.
  // Swept on the heartbeat; entries are erased when the grant arrives.
  std::unordered_map<InodeId, SimTime> replica_fetch_deadline_;

  // Distributed attribute updates (section 4.2). Pending delta counts
  // (replica side) and dirty-holder sets (authority side) live in the
  // EntryAux sidecar; only the parked requests stay here (they hold a
  // private RequestPtr type).
  bool attr_flush_scheduled_ = false;
  /// Reads parked while deltas are called in, stamped so the heartbeat
  /// sweep can resume them if a flush is lost (the scheme tolerates
  /// monotone-stale attributes by design).
  struct AttrGather {
    SimTime since = 0;
    std::vector<RequestPtr> reqs;
  };
  std::unordered_map<InodeId, AttrGather> attr_waiters_;

  // Coalesced tier-2 writebacks: expired journal entries grouped by their
  // containing directory (shared B+tree nodes make one object write per
  // dirty directory, not one transaction per entry — section 4.6).
  std::unordered_map<InodeId, std::uint32_t> writeback_dirs_;
  bool writeback_flush_scheduled_ = false;
};

}  // namespace mdsim
