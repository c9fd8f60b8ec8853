// The benchmark's workloads: named, seeded simulator configurations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/config.h"

namespace perfbench {

/// Sub-seeds one invocation runs. The simulated-cluster metrics vary with
/// the namespace a seed generates; pooling a few namespaces per invocation
/// keeps them steady from one benchmark seed to the next.
constexpr int kSubSeeds = 2;

/// Sub-seed k of a benchmark seed; sub-seed 0 is the seed itself.
std::uint64_t subseed(std::uint64_t seed, int k);

/// The named workload's configuration with its inputs drawn from `seed`
/// (both the simulation seed and the namespace seed). `threads` is the
/// worker count of sharded shapes and is ignored by single-engine ones.
/// Empty for an unknown name.
std::optional<mdsim::SimConfig> make_workload(const std::string& name,
                                              std::uint64_t seed, int threads);

}  // namespace perfbench
