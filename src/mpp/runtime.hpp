#pragma once
// mpp::Runtime — SCMD launcher.
//
// CCAFFEINE's parallel model (paper §3.1) is SCMD: "Identical frameworks,
// containing the same components, are instantiated on all P processors."
// Runtime::run reproduces that: it spins up P rank threads, each of which
// receives its own world communicator handle and executes the same
// `rank_main` — inside which the case study instantiates a full CCA
// framework per rank.
//
// Exceptions thrown by any rank are captured; the first one is rethrown on
// the launching thread after all ranks have been joined.

#include <functional>

#include "mpp/comm.hpp"
#include "mpp/fault.hpp"
#include "mpp/netmodel.hpp"

namespace mpp {

/// Everything a run can configure beyond the rank count. Environment knobs
/// override fields at launch (see Runtime::run): CCAPERF_FAULT_PLAN /
/// CCAPERF_FAULT_SEED install a fault schedule, CCAPERF_WAIT_TIMEOUT_MS
/// sets the per-wait timeout.
struct RunOptions {
  NetworkModel net = NetworkModel::null_model();
  FaultSpec faults{};  ///< inactive unless a rate is > 0
  double wait_timeout_us = 0.0;  ///< 0 = no per-wait timeout
  double idle_limit_us = Fabric::kDefaultIdleLimitUs;  ///< no-progress bound
};

class Runtime {
 public:
  /// Runs `rank_main(world)` on `nranks` threads sharing one Fabric.
  /// Blocks until every rank returns. Rethrows the first rank exception.
  static void run(int nranks, const RunOptions& opts,
                  const std::function<void(Comm&)>& rank_main);

  static void run(int nranks, const NetworkModel& net,
                  const std::function<void(Comm&)>& rank_main) {
    RunOptions opts;
    opts.net = net;
    run(nranks, opts, rank_main);
  }

  /// Convenience overload with no injected network delays.
  static void run(int nranks, const std::function<void(Comm&)>& rank_main) {
    run(nranks, RunOptions{}, rank_main);
  }
};

}  // namespace mpp
