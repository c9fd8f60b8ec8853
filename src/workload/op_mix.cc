#include "workload/op_mix.h"

#include <cassert>

namespace mdsim {

OpMix::OpMix(std::vector<double> weights)
    : weights_(std::move(weights)), table_(weights_) {
  assert(weights_.size() == static_cast<std::size_t>(kNumOpTypes));
}

OpType OpMix::sample(Rng& rng) const {
  return static_cast<OpType>(table_(rng));
}

namespace {
std::vector<double> make_weights(double stat, double open, double close,
                                 double readdir, double create, double mkdir,
                                 double unlink, double rmdir, double rename,
                                 double chmod, double setattr, double link) {
  // Order must match the OpType enum.
  return {stat,  open,  close,  readdir, create, mkdir,
          unlink, rmdir, rename, chmod,   setattr, link};
}
}  // namespace

OpMix OpMix::general_purpose() {
  return OpMix(make_weights(/*stat=*/42.0, /*open=*/18.0, /*close=*/18.0,
                            /*readdir=*/8.0, /*create=*/4.5, /*mkdir=*/0.6,
                            /*unlink=*/3.6, /*rmdir=*/0.3, /*rename=*/0.8,
                            /*chmod=*/0.7, /*setattr=*/2.4, /*link=*/0.1));
}

OpMix OpMix::create_heavy() {
  return OpMix(make_weights(/*stat=*/22.0, /*open=*/10.0, /*close=*/10.0,
                            /*readdir=*/4.0, /*create=*/35.0, /*mkdir=*/3.5,
                            /*unlink=*/9.0, /*rmdir=*/0.2, /*rename=*/0.5,
                            /*chmod=*/0.3, /*setattr=*/5.5, /*link=*/0.0));
}

OpMix OpMix::restructure_heavy() {
  return OpMix(make_weights(/*stat=*/30.0, /*open=*/12.0, /*close=*/12.0,
                            /*readdir=*/6.0, /*create=*/6.0, /*mkdir=*/1.0,
                            /*unlink=*/4.0, /*rmdir=*/0.5, /*rename=*/12.0,
                            /*chmod=*/14.0, /*setattr=*/2.0, /*link=*/0.5));
}

}  // namespace mdsim
