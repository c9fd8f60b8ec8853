// Outside-in unit costs: one layer's basic operation timed in isolation,
// on inputs shaped like a workload. Multiplying a unit cost by the call
// count a real run made gives a computed (not measured) share of that
// run's wall time.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fstree/tree.h"
#include "net/network.h"

namespace perfbench {

/// Wall ns per Simulation schedule->fire, in a hold model that keeps
/// `pending` events queued (the heap depth of the real run).
double sim_event_ns(std::size_t pending, std::uint64_t seed);

/// Wall ns per MetadataCache::lookup on a cache of `capacity` items filled
/// from `tree` in breadth-first order, `hit_rate` of lookups resident.
double cache_lookup_ns(const mdsim::FsTree& tree, std::size_t capacity,
                       double hit_rate, std::uint64_t seed);

/// Wall ns per Network send->deliver of a client request or reply between
/// `mds` servers and `clients` clients, delivery event included.
double net_message_ns(const mdsim::NetworkParams& params, int mds,
                      int clients, std::uint64_t seed);

}  // namespace perfbench
