#include "core/fault_plan.h"

#include <algorithm>

#include "common/rng.h"

namespace mdsim {

FaultPlan& FaultPlan::add(Kind kind, SimTime at, Call call) {
  actions_.push_back(Action{kind, at, std::move(call)});
  return *this;
}

FaultPlan& FaultPlan::window(Kind kind, SimTime from, SimTime until,
                             Call open, Call close) {
  add(kind, from, std::move(open));
  if (until > from) add(kind, until, std::move(close));
  return *this;
}

FaultPlan& FaultPlan::crash(SimTime at, MdsId node, bool warm) {
  return add(Kind::kCrash, at,
             [=](ClusterSim& c) { c.fail_mds(node, warm); });
}

FaultPlan& FaultPlan::restart(SimTime at, MdsId node) {
  return add(Kind::kRestart, at,
             [=](ClusterSim& c) { c.recover_mds(node); });
}

FaultPlan& FaultPlan::flaky_link(SimTime from, SimTime until, NetAddr a,
                                 NetAddr b, const LinkFault& fault) {
  return window(
      Kind::kLink, from, until,
      [=](ClusterSim& c) { c.network().set_link_fault(a, b, fault); },
      [=](ClusterSim& c) { c.network().clear_link_fault(a, b); });
}

FaultPlan& FaultPlan::partition(SimTime from, SimTime until,
                                std::vector<std::vector<NetAddr>> groups) {
  return window(
      Kind::kPartition, from, until,
      [groups = std::move(groups)](ClusterSim& c) {
        c.network().partition(groups);
      },
      [](ClusterSim& c) { c.network().heal(); });
}

FaultPlan& FaultPlan::cut_link(SimTime from, SimTime until, NetAddr src,
                               NetAddr dst) {
  return window(
      Kind::kCut, from, until,
      [=](ClusterSim& c) { c.network().cut_link(src, dst); },
      [=](ClusterSim& c) { c.network().restore_link(src, dst); });
}

FaultPlan& FaultPlan::fail_slow(SimTime from, SimTime until, MdsId node,
                                double cpu_mult, double disk_mult) {
  return window(
      Kind::kFailSlow, from, until,
      [=](ClusterSim& c) { c.set_fail_slow(node, cpu_mult, disk_mult); },
      [=](ClusterSim& c) { c.set_fail_slow(node, 1.0, 1.0); });
}

FaultPlan FaultPlan::randomize(std::uint64_t seed, int num_mds,
                               SimTime duration) {
  FaultPlan plan;
  if (num_mds < 2 || duration <= 0) return plan;
  Rng rng(seed, /*stream=*/0xc4a05ULL);
  const SimTime lo = duration / 5;
  const SimTime hi = 4 * duration / 5;
  const auto at_in = [&](SimTime a, SimTime b) {
    return a + static_cast<SimTime>(
                   rng.uniform(static_cast<std::uint64_t>(b - a)));
  };
  const auto pick_node = [&]() {
    return static_cast<MdsId>(rng.uniform(static_cast<std::uint64_t>(num_mds)));
  };

  // One crash/restart pair (warm or cold, never the last survivor since
  // num_mds >= 2 and only one node crashes at a time).
  const SimTime crash_at = at_in(lo, (lo + hi) / 2);
  const SimTime restart_at = at_in(crash_at + duration / 10, hi);
  const MdsId crashed = pick_node();
  plan.crash(crash_at, crashed, /*warm=*/rng.bernoulli(0.5));
  plan.restart(restart_at, crashed);
  // One fail-slow window on a different node: degraded disk, sometimes
  // CPU too.
  {
    const SimTime at = at_in(lo, (lo + hi) / 2);
    const SimTime end = at_in(at + duration / 10, hi);
    MdsId victim = pick_node();
    if (victim == crashed) victim = static_cast<MdsId>((victim + 1) % num_mds);
    const double disk_mult = 4.0 + static_cast<double>(rng.uniform(9));
    const double cpu_mult = rng.bernoulli(0.5) ? 2.0 : 1.0;
    plan.fail_slow(at, end, victim, cpu_mult, disk_mult);
  }
  // One transient flaky window and one sustained lossy-degrade window on
  // two different random MDS<->MDS links: a link holds one fault record,
  // so windows sharing a link would cut each other short. Ordered pairs
  // (a, b != a) are numbered a*(n-1) + (b-a-1 mod n).
  const auto n1 = static_cast<std::uint64_t>(num_mds - 1);
  const auto index_of = [&](MdsId a, MdsId b) {
    return static_cast<std::uint64_t>(a) * n1 +
           static_cast<std::uint64_t>((b - a - 1 + num_mds) % num_mds);
  };
  std::uint64_t flaky_ab = 0;
  std::uint64_t flaky_ba = 0;
  {
    const SimTime at = at_in(lo, hi - duration / 20);
    const SimTime end = at_in(at + duration / 20, hi);
    const MdsId a = pick_node();
    const MdsId b = static_cast<MdsId>((a + 1 + rng.uniform(n1)) % num_mds);
    LinkFault f;
    f.drop = 0.05 + 0.1 * rng.uniform_double();
    f.duplicate = 0.02;
    f.spike = 0.05;
    plan.flaky_link(at, end, a, b, f);
    flaky_ab = index_of(a, b);
    flaky_ba = index_of(b, a);
  }
  // With two MDS there is no other link.
  if (num_mds >= 3) {
    const SimTime at = at_in(lo, hi - duration / 20);
    const SimTime end = at_in(at + duration / 20, hi);
    // Any ordered pair but the flaky link's two, the lower index skipped
    // first.
    std::uint64_t k = rng.uniform(static_cast<std::uint64_t>(num_mds) * n1 - 2);
    if (k >= std::min(flaky_ab, flaky_ba)) ++k;
    if (k >= std::max(flaky_ab, flaky_ba)) ++k;
    const auto a = static_cast<MdsId>(k / n1);
    const auto b = static_cast<MdsId>((a + 1 + k % n1) % num_mds);
    LinkFault d;
    d.latency_factor = 2.0 + 6.0 * rng.uniform_double();
    d.extra_latency = from_micros(200);
    d.drop = 0.02 * rng.uniform_double();
    plan.flaky_link(at, end, a, b, d);
  }
  // Occasionally a short partition isolating one node (only with enough
  // survivors for a quorum on the majority side).
  if (num_mds >= 4 && rng.bernoulli(0.5)) {
    const SimTime at = at_in(lo, hi - duration / 10);
    const SimTime end = at_in(at + duration / 20, hi);
    const MdsId isolated = pick_node();
    std::vector<NetAddr> rest;
    for (MdsId i = 0; i < num_mds; ++i) {
      if (i != isolated) rest.push_back(i);
    }
    plan.partition(at, end, {rest, {isolated}});
  }
  return plan;
}

void FaultPlan::arm(ClusterSim& cluster) const {
  std::vector<Action> timeline = actions_;
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Action& x, const Action& y) {
                     return x.kind < y.kind;
                   });
  for (Action& a : timeline) {
    cluster.sim().schedule_at(
        a.at, [&cluster, call = std::move(a.call)]() { call(cluster); });
  }
}

}  // namespace mdsim
