#pragma once
// Where the benchmark's threads run (README.md, "Noise").
//
// The ranks and pool lanes block on condition variables many times per
// step. On a virtual machine a CPU with nothing to run halts, the host
// takes its physical CPU away, and waking a thread there waits until the
// host runs that virtual CPU again; when other guests keep the host busy
// that wait reaches milliseconds and slows whole simulations. So for the
// lifetime of an IdlePollers object no CPU halts: each has a busy thread
// of the lowest priority (SCHED_IDLE), which runs only when nothing else
// there can and which a woken rank or lane preempts at once.
//
// With every CPU busy, the kernel no longer looks for an idle CPU when it
// starts or wakes a thread, and new threads stay on their parent's CPU:
// the three ranks, or the three lanes, would share one CPU. So the
// program's threads are placed by hand: the main thread and what it
// starts (the hub's drainer) on the first CPU the process may use, and
// program thread i (rank or pool lane) on the (i+1)-th, wrapping.

#include <time.h>

#include <atomic>
#include <thread>
#include <vector>

namespace fig01bench {

class IdlePollers {
 public:
  /// Pins the calling (main) thread to the first CPU, starts one poller
  /// per CPU and returns once each has set its priority and CPU.
  IdlePollers();
  /// Stops the pollers, waits for each to end, and lets the calling
  /// thread run on every CPU again.
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

  /// Pollers that run (a CPU whose poller could not take SCHED_IDLE has
  /// none, rather than one that competes with the program).
  int running() const { return running_.load(); }

  /// CPU time the live pollers have used so far; 0 when none are live.
  /// Process CPU time minus this is the program's own.
  static double cpu_s();

  /// Pins the calling thread, program thread `slot` (a rank or a pool
  /// lane), to its own CPU while pollers are live; otherwise does nothing.
  static void pin_program_thread(int slot);

 private:
  bool prepare(int cpu, std::size_t slot);
  void poll() const;

  std::atomic<bool> stop_{false};
  std::atomic<int> running_{0};
  std::vector<int> cpus_;          ///< the CPUs the process may use
  std::vector<clockid_t> clocks_;  ///< per CPU, valid where ready_
  std::vector<char> ready_;
  std::vector<std::thread> threads_;
};

/// Pins each of the calling rank's pool lanes to its own CPU (lane 0 is
/// the rank thread itself). Runs one region on the pool.
void pin_pool_lanes(int lanes);

}  // namespace fig01bench
