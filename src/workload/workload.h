// Workload generator interface.
//
// The paper (section 5.2) generates client workloads from published trace
// *characterizations* rather than raw traces: op-type frequencies follow
// the Roselli et al. general-purpose study; spatial behaviour follows the
// Floyd/Ellis directory-locality results; scientific bursts follow the
// LLNL 2003 analysis. Each concrete workload implements those shapes
// against the ground-truth namespace.
#pragma once

#include <string>

#include "common/rng.h"
#include "common/types.h"
#include "fstree/tree.h"

namespace mdsim {

/// One metadata operation a client is about to issue.
struct Operation {
  OpType op = OpType::kStat;
  /// Existing-item ops: the item. create/mkdir/link: the containing dir.
  FsNode* target = nullptr;
  /// rename: destination dir; link: source file.
  FsNode* secondary = nullptr;
  /// New dentry name (create/mkdir/rename/link).
  std::string name;
};

/// Sentinel delay: the client has no further work.
constexpr SimTime kNever = ~SimTime{0};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Produce the next operation for client `c`. Returns the delay (from
  /// `now`) after which the client should issue it, or kNever if the
  /// client is finished. `out` is only valid for non-kNever returns.
  virtual SimTime next(ClientId c, SimTime now, Rng& rng, Operation* out) = 0;
};

}  // namespace mdsim
