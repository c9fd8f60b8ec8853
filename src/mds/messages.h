// Concrete wire messages of the MDS protocol.
//
// Requests reference file-system items by inode id (plus a parent/name pair
// for creates); receivers re-resolve ids against the ground-truth tree so a
// racing unlink simply fails the request instead of dereferencing a dead
// node.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/inline_vec.h"
#include "common/types.h"
#include "net/message.h"

namespace mdsim {

struct TraceRecord;

/// Where the client should send future requests for an item (traffic
/// control, paper section 4.4: "all responses sent to clients include
/// current distribution information ... for the metadata requested and
/// their prefix directories").
struct LocationHint {
  InodeId ino = kInvalidInode;
  MdsId authority = kInvalidMds;
  /// Popular item: replicated widely; pick any node.
  bool replicated_everywhere = false;
};

struct ClientRequestMsg final : Message {
  ClientRequestMsg() : Message(MsgType::kClientRequest, 96) {}
  MessagePtr clone() const override { return std::make_unique<ClientRequestMsg>(*this); }

  std::uint64_t req_id = 0;
  ClientId client = kInvalidClient;
  NetAddr client_addr = kInvalidAddr;
  OpType op = OpType::kStat;
  std::uint32_t uid = 0;

  /// Target item (existing-item ops). For create/mkdir: the parent dir.
  InodeId target = kInvalidInode;
  /// Secondary: rename destination dir / link dir.
  InodeId secondary = kInvalidInode;
  /// New entry name (create/mkdir/rename/link).
  std::string name;

  /// Forwarding trail (for statistics + loop suppression).
  std::uint8_t hops = 0;
  /// Retry number (0 = fresh). Saturates at 255; the admission gate only
  /// distinguishes fresh from retried.
  std::uint8_t attempt = 0;
  /// 1 on the backup copy of a hedged read (hedge_policy.h). Echoed on
  /// the reply so the client can attribute which copy won; servers treat
  /// both copies identically otherwise.
  std::uint8_t hedge = 0;
  /// Client-side deadline (issue time + request timeout). A server past
  /// this time knows the client has already timed out and will discard
  /// the reply as stale — overload admission drops such requests instead
  /// of serving dead work. 0 = no deadline (and when overload protection
  /// is off the field is never read, keeping fig runs byte-identical).
  SimTime deadline = 0;

  /// Latency-attribution context, owned by the issuing client (null when
  /// tracing is off). Not a wire field: the simulator shortcut for a
  /// trace id that real systems would carry in the header. Clones
  /// (network duplication) share the record; the record's request-id
  /// guard keeps stale instances from attributing.
  TraceRecord* trace = nullptr;
};

struct ClientReplyMsg final : Message {
  ClientReplyMsg() : Message(MsgType::kClientReply, 128) {}
  MessagePtr clone() const override { return std::make_unique<ClientReplyMsg>(*this); }

  std::uint64_t req_id = 0;
  bool success = false;
  /// The server that ultimately served the request.
  MdsId served_by = kInvalidMds;
  std::uint8_t hops = 0;
  /// Echo of ClientRequestMsg::hedge: this reply answers the backup copy.
  std::uint8_t hedge = 0;
  /// Inode created/affected (so the client can learn about new items).
  InodeId result_ino = kInvalidInode;
  /// Server's partition-map epoch. A jump tells the client the authority
  /// layout was reconfigured (takeover/heal): drop learned locations.
  std::uint64_t epoch = 1;
  /// Overload rejection: the request was shed at admission, not served.
  /// `success` is false; the client should back off `retry_after` before
  /// retrying (and the retry counts against its budget).
  bool rejected = false;
  SimTime retry_after = 0;
  /// Hints for the target and its prefixes, root-down. Inline up to
  /// typical path depths: replies are the most numerous message in the
  /// system and must not drag a heap allocation each.
  InlineVec<LocationHint, 12> hints;
  /// GIGA+ piggyback: split bitmap of the deepest fragmented directory on
  /// the reply's path (clients cache it and route dentry ops straight to
  /// the owning partition). giga_dir == kInvalidInode when no directory
  /// on the path is giga-fragmented; a valid dir with giga_bitmap == 0
  /// tells the client the directory was unhashed — drop the cached map.
  /// Modeled wire size unchanged: the bitmap rides in reply slack.
  InodeId giga_dir = kInvalidInode;
  std::uint64_t giga_bitmap = 0;
  MdsId giga_home = kInvalidMds;
};

/// MDS-to-MDS: carry a client request to the authoritative node.
struct ForwardMsg final : Message {
  ForwardMsg() : Message(MsgType::kForwardedRequest, 112) {}
  MessagePtr clone() const override { return std::make_unique<ForwardMsg>(*this); }
  ClientRequestMsg inner;
};

/// Ask the authority for a (prefix) inode replica.
struct ReplicaRequestMsg final : Message {
  ReplicaRequestMsg() : Message(MsgType::kReplicaRequest, 48) {}
  MessagePtr clone() const override { return std::make_unique<ReplicaRequestMsg>(*this); }
  InodeId ino = kInvalidInode;
  std::uint64_t xid = 0;  // matches request to grant at the requester
};

struct ReplicaGrantMsg final : Message {
  ReplicaGrantMsg() : Message(MsgType::kReplicaGrant, 96) {}
  MessagePtr clone() const override { return std::make_unique<ReplicaGrantMsg>(*this); }
  InodeId ino = kInvalidInode;
  std::uint64_t xid = 0;   // 0 for unsolicited (traffic-control) grants
  bool unsolicited = false;
  std::uint64_t version = 0;
};

/// Replica holder discarded its copy (cache eviction), releasing the
/// authority from sending further invalidations.
struct ReplicaDropMsg final : Message {
  ReplicaDropMsg() : Message(MsgType::kReplicaDrop, 32) {}
  MessagePtr clone() const override { return std::make_unique<ReplicaDropMsg>(*this); }
  InodeId ino = kInvalidInode;
};

/// Authority tells replica holders an item changed (or vanished).
struct CacheInvalidateMsg final : Message {
  CacheInvalidateMsg() : Message(MsgType::kCacheInvalidate, 48) {}
  MessagePtr clone() const override { return std::make_unique<CacheInvalidateMsg>(*this); }
  InodeId ino = kInvalidInode;
  bool removed = false;  // unlink/rmdir vs attribute update
  /// Rename of a directory: receivers must drop every cached descendant
  /// (their position — and under hashing, their location — changed).
  bool whole_subtree = false;
  std::uint64_t version = 0;
  /// Sender's map epoch; receivers drop invalidations from a superseded
  /// regime (a fenced node's coherence traffic must not land).
  std::uint64_t epoch = 1;
};

/// Periodic load exchange for the balancer (paper section 4.3).
struct HeartbeatMsg final : Message {
  HeartbeatMsg() : Message(MsgType::kHeartbeat, 40) {}
  MessagePtr clone() const override { return std::make_unique<HeartbeatMsg>(*this); }
  MdsId sender = kInvalidMds;
  double load = 0.0;
  /// Sender's partition-map view epoch (gossiped; receivers adopt the max).
  std::uint64_t epoch = 1;
  /// Bitmask of nodes the sender currently believes alive (bit i of word
  /// i/64 = MDS i). A receiver renews its authority lease only on
  /// heartbeats whose mask lists it — under an asymmetric cut, hearing
  /// the majority is not enough; the majority must still be hearing *us*.
  std::vector<std::uint64_t> alive_mask;
  /// Sender's dirfrag-registry generation. A receiver that lags re-syncs
  /// (re-runs drop_foreign_dentries over changed directories), healing
  /// DirFragNotify messages lost to link faults or partitions.
  std::uint64_t dirfrag_gen = 0;
  /// Gray-failure health piggyback (zero extra events: these ride the
  /// heartbeat that was going out anyway). `sent_at` lets the receiver
  /// measure one-way delivery lag; `svc_lag` is the sender's self-measured
  /// service backlog (CPU + store, ns). Both stay 0 unless
  /// HealthParams::enabled, keeping healthy runs byte-identical.
  SimTime sent_at = 0;
  SimTime svc_lag = 0;
  bool lists_alive(MdsId id) const {
    const auto w = static_cast<std::size_t>(id) / 64;
    return w < alive_mask.size() &&
           (alive_mask[w] >> (static_cast<std::size_t>(id) % 64)) & 1u;
  }
};

/// Double-commit subtree migration (paper section 4.3): prepare carries
/// the full active state; the importer acks; the exporter commits.
struct MigratePrepareMsg final : Message {
  MigratePrepareMsg() : Message(MsgType::kMigratePrepare, 256) {}
  MessagePtr clone() const override { return std::make_unique<MigratePrepareMsg>(*this); }
  std::uint64_t migration_id = 0;
  InodeId subtree_root = kInvalidInode;
  /// Exporter's map epoch when the migration was proposed; importers
  /// reject prepares from a superseded regime.
  std::uint64_t epoch = 1;
  /// Cached items transferred (ids; resolved at the importer). Ordered
  /// parents-before-children so importer inserts preserve the cache tree
  /// invariant.
  std::vector<InodeId> items;
  /// Additional subtree roots riding in the same transaction. Empty for
  /// ordinary balancing; a self-degraded volunteer evacuates several
  /// trees per journal round-trip (see kEvacuationMaxRoots).
  std::vector<InodeId> extra_roots;
};

struct MigrateAckMsg final : Message {
  MigrateAckMsg() : Message(MsgType::kMigrateAck, 32) {}
  MessagePtr clone() const override { return std::make_unique<MigrateAckMsg>(*this); }
  std::uint64_t migration_id = 0;
  bool accepted = true;
  /// Importer's map epoch; the exporter ignores acks from an old regime.
  std::uint64_t epoch = 1;
};

struct MigrateCommitMsg final : Message {
  MigrateCommitMsg() : Message(MsgType::kMigrateCommit, 32) {}
  MessagePtr clone() const override { return std::make_unique<MigrateCommitMsg>(*this); }
  std::uint64_t migration_id = 0;
  InodeId subtree_root = kInvalidInode;
};

/// Exporter cancels a migration whose ack never arrived (timeout, or the
/// importer was detected down). The importer rolls back any installed
/// state; the partition map never flipped, so the exporter keeps serving.
struct MigrateAbortMsg final : Message {
  MigrateAbortMsg() : Message(MsgType::kMigrateAbort, 32) {}
  MessagePtr clone() const override { return std::make_unique<MigrateAbortMsg>(*this); }
  std::uint64_t migration_id = 0;
};

/// Lazy Hybrid background update: refresh one file's dual-entry ACL /
/// placement (one network trip per affected file, section 3.1.3).
struct LazyHybridUpdateMsg final : Message {
  LazyHybridUpdateMsg() : Message(MsgType::kLazyHybridUpdate, 48) {}
  MessagePtr clone() const override { return std::make_unique<LazyHybridUpdateMsg>(*this); }
  InodeId ino = kInvalidInode;
};

/// GPFS-style distributed attribute updates (paper section 4.2): replicas
/// absorb monotone attribute writes (mtime/size) locally and ship them to
/// the authority periodically; reads at the authority call the deltas in.
struct AttrDirtyMsg final : Message {
  AttrDirtyMsg() : Message(MsgType::kAttrDirty, 32) {}
  MessagePtr clone() const override { return std::make_unique<AttrDirtyMsg>(*this); }
  InodeId ino = kInvalidInode;
};

struct AttrFlushMsg final : Message {
  AttrFlushMsg() : Message(MsgType::kAttrFlush, 48) {}
  MessagePtr clone() const override { return std::make_unique<AttrFlushMsg>(*this); }
  InodeId ino = kInvalidInode;
  std::uint32_t updates = 0;  // absorbed local writes being shipped
};

struct AttrCallbackMsg final : Message {
  AttrCallbackMsg() : Message(MsgType::kAttrCallback, 32) {}
  MessagePtr clone() const override { return std::make_unique<AttrCallbackMsg>(*this); }
  InodeId ino = kInvalidInode;
};

/// Announce that a directory was fragmented (hashed) across the cluster or
/// consolidated back (paper section 4.3).
struct DirFragNotifyMsg final : Message {
  DirFragNotifyMsg() : Message(MsgType::kDirFragNotify, 40) {}
  MessagePtr clone() const override { return std::make_unique<DirFragNotifyMsg>(*this); }
  InodeId dir = kInvalidInode;
  bool fragmented = true;
  /// Split bitmap and registry generation as of the transition. The
  /// notify is best-effort (single-shot, unacked); the generation on
  /// balancer heartbeats is what guarantees eventual re-sync.
  std::uint64_t bitmap = 0;
  std::uint64_t gen = 0;
};

/// Correction for a mis-routed dentry op: the receiver's cached split
/// bitmap for `dir` is stale. The server still forwards the op to the
/// right partition (bounded hops); the client learns the fresh bitmap so
/// the redirect rate decays to zero after the last split.
struct GigaRedirectMsg final : Message {
  GigaRedirectMsg() : Message(MsgType::kGigaRedirect, 40) {}
  MessagePtr clone() const override { return std::make_unique<GigaRedirectMsg>(*this); }
  InodeId dir = kInvalidInode;
  std::uint64_t bitmap = 0;
  MdsId home = kInvalidMds;
};

}  // namespace mdsim
