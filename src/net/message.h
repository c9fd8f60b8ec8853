// Message base class for the simulated cluster interconnect.
//
// Concrete message types are defined by the layers that use them (the MDS
// protocol in src/mds/messages.h, the client protocol in the same place).
// The network layer only needs a type tag (for per-type statistics) and an
// approximate wire size (for future bandwidth modelling).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace mdsim {

/// Size-class recycler backing every protocol message allocation.
///
/// The cluster exchanges hundreds of thousands of short-lived messages per
/// simulated second; allocating each through the global heap is the single
/// largest hidden cost on the request hot path. Freed blocks are chained
/// onto a per-thread, per-size-class free list (the first word of the dead
/// block is the link) and handed back on the next allocation of that
/// class. Blocks migrate between threads with the messages that carry
/// them: a block freed on a consuming shard's thread joins that thread's
/// list — safe, because the cross-shard mailbox protocol orders the
/// producer's writes before the consumer's reuse. Lists are drained back
/// to the heap at thread exit, so sanitizers see no leak.
class MessagePool {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kNumClasses = 8;  // up to 512-byte messages

  static void* allocate(std::size_t bytes) {
    const std::size_t cls = (bytes + kClassBytes - 1) / kClassBytes;
    if (cls == 0 || cls > kNumClasses) return ::operator new(bytes);
    void*& head = lists().head[cls - 1];
    if (head == nullptr) return ::operator new(cls * kClassBytes);
    void* p = head;
    head = *static_cast<void**>(p);
    return p;
  }

  static void deallocate(void* p, std::size_t bytes) {
    const std::size_t cls = (bytes + kClassBytes - 1) / kClassBytes;
    if (cls == 0 || cls > kNumClasses) {
      ::operator delete(p);
      return;
    }
    void*& head = lists().head[cls - 1];
    *static_cast<void**>(p) = head;
    head = p;
  }

 private:
  struct FreeLists {
    void* head[kNumClasses] = {};
    ~FreeLists() {
      for (void* p : head) {
        while (p != nullptr) {
          void* next = *static_cast<void**>(p);
          ::operator delete(p);
          p = next;
        }
      }
    }
  };
  static FreeLists& lists() {
    thread_local FreeLists fl;
    return fl;
  }
};

/// Network addresses. MDS nodes occupy [0, cluster_size); clients are
/// assigned addresses at cluster_size + client_id.
using NetAddr = std::int32_t;
constexpr NetAddr kInvalidAddr = -1;

enum class MsgType : std::uint8_t {
  // Client <-> MDS
  kClientRequest,
  kClientReply,
  // MDS <-> MDS
  kForwardedRequest,
  kReplicaRequest,   // fetch inode(s) for prefix/replica caching
  kReplicaGrant,
  kReplicaDrop,      // replica holder discards; authority may release
  kCacheInvalidate,  // authority -> replicas on update
  kCacheUpdateAck,
  kHeartbeat,        // load exchange for the balancer
  kMigratePrepare,   // double-commit subtree migration
  kMigrateCommit,
  kMigrateAck,
  kLazyHybridUpdate,  // LH propagation traffic
  kDirFragNotify,     // directory hash/unhash announcements
  // GPFS-style distributed attribute updates (paper section 4.2):
  kAttrDirty,     // replica tells authority it holds local attr deltas
  kAttrFlush,     // replica ships accumulated deltas to the authority
  kAttrCallback,  // authority demands an immediate flush (client read)
  kMigrateAbort,  // exporter cancels an unacked migration (timeout)
  kGigaRedirect,  // bitmap correction for a mis-routed dentry op
};

constexpr const char* msg_name(MsgType t) {
  switch (t) {
    case MsgType::kClientRequest: return "client_request";
    case MsgType::kClientReply: return "client_reply";
    case MsgType::kForwardedRequest: return "forward";
    case MsgType::kReplicaRequest: return "replica_request";
    case MsgType::kReplicaGrant: return "replica_grant";
    case MsgType::kReplicaDrop: return "replica_drop";
    case MsgType::kCacheInvalidate: return "invalidate";
    case MsgType::kCacheUpdateAck: return "update_ack";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kMigratePrepare: return "migrate_prepare";
    case MsgType::kMigrateCommit: return "migrate_commit";
    case MsgType::kMigrateAck: return "migrate_ack";
    case MsgType::kLazyHybridUpdate: return "lh_update";
    case MsgType::kDirFragNotify: return "dirfrag";
    case MsgType::kAttrDirty: return "attr_dirty";
    case MsgType::kAttrFlush: return "attr_flush";
    case MsgType::kAttrCallback: return "attr_callback";
    case MsgType::kMigrateAbort: return "migrate_abort";
    case MsgType::kGigaRedirect: return "giga_redirect";
  }
  return "?";
}

constexpr int kNumMsgTypes = 19;

struct Message;
using MessagePtr = std::unique_ptr<Message>;

struct Message {
  explicit Message(MsgType t, std::uint32_t bytes = 64)
      : type(t), size_bytes(bytes) {}
  virtual ~Message() = default;

  /// Deep copy, used by the network's duplication injection: the second
  /// delivery must carry the full payload, so every concrete message type
  /// overrides this. The base implementation covers untyped (test-only)
  /// messages.
  virtual MessagePtr clone() const { return std::make_unique<Message>(*this); }

  /// All messages (base and derived alike) draw from the per-thread
  /// recycler. The deleting destructor passes the most-derived size, so
  /// blocks always return to the class they came from.
  static void* operator new(std::size_t sz) { return MessagePool::allocate(sz); }
  static void operator delete(void* p, std::size_t sz) {
    MessagePool::deallocate(p, sz);
  }

  MsgType type;
  std::uint32_t size_bytes;
};

/// Anything that can receive messages from the network.
class NetEndpoint {
 public:
  virtual ~NetEndpoint() = default;
  virtual void on_message(NetAddr from, MessagePtr msg) = 0;
};

}  // namespace mdsim
