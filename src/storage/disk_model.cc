#include "storage/disk_model.h"

namespace mdsim {

DiskModel::DiskModel(Simulation& sim, const DiskParams& params,
                     std::string name)
    : params_(params),
      store_(sim, name + ".store"),
      journal_(sim, name + ".journal") {
  store_.set_access_latency(params_.access_latency);
}

SimTime DiskModel::transfer_time(std::uint32_t nodes) const {
  const std::uint32_t extra = nodes > 0 ? nodes - 1 : 0;
  return params_.transaction_time + extra * params_.per_node_time;
}

void DiskModel::read_object(std::uint32_t nodes, TraceSpan span,
                            InlineTask done) {
  ++reads_;
  store_.submit(transfer_time(nodes), span, std::move(done));
}

void DiskModel::write_object(std::uint32_t nodes, InlineTask done) {
  ++writes_;
  store_.submit(transfer_time(nodes), std::move(done));
}

void DiskModel::journal_append(TraceSpan span, InlineTask done) {
  ++journal_appends_;
  journal_.submit(params_.journal_append_time, span, std::move(done));
}

}  // namespace mdsim
