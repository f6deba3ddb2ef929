#pragma once
// ccaperf::ThreadPool — a small work-stealing pool for intra-rank
// parallelism (DESIGN.md §9).
//
// The SCMD model (mpp::Runtime) gives one thread per rank; this pool adds
// lanes *inside* a rank so AMR patch loops and Euler kernel row blocks can
// run concurrently while the measurement stack stays deterministic:
//
//  - A pool of size N has N *lanes*: the calling thread participates as
//    lane 0 and N-1 persistent workers take lanes 1..N-1. Lane indices are
//    what the per-thread tau::Registry shards key on.
//  - Size 1 means *no* threads, no locks, no atomics: parallel_for runs
//    the body inline, so `CCAPERF_THREADS=1` is byte-identical to the
//    serial code it replaced.
//  - parallel_for(n, body) splits [0, n) into per-lane contiguous ranges;
//    an idle lane steals the back half of a victim's remaining range
//    (lazy binary splitting). Stealing moves whole items, so it cannot
//    split one expensive item (a single big patch) across lanes.
//  - Nested parallel_for from inside a top-level item opens the calling
//    lane's *nested slot*: the lane publishes the index range there and
//    draws indices from it, and every lane with no top-level item left
//    draws from any open slot until the top-level region is done. A lane
//    waiting on its own nested call runs only that call's indices, so no
//    lane ever starts a second top-level item while inside one (per-lane
//    and thread_local scratch stays private to one item). Lanes claim
//    guided chunks (a share of what is left), so neighbouring rows stay on
//    one lane. Idle lanes spin for at most 100 us, then park; a claim that
//    leaves indices over wakes one parked lane, and the region's end wakes
//    all. Between top-level regions a worker likewise spins up to 100 us
//    for the next one before it parks on the pool's condition variable, so
//    regions that follow closely start without a wake-up. While the lanes
//    of all live multi-lane pools outnumber the CPUs, idle lanes and
//    workers between regions park without spinning.
//  - A parallel_for nested inside a nested call, or issued on a different
//    pool than the enclosing region's, runs inline on the calling lane.
//  - The first exception thrown by any task is rethrown on the caller
//    after the region completes (mirrors mpp::Runtime::run).
//  - A region-end hook runs on the caller after every top-level region.
//    TauMeasurementComponent installs the shard merge there, which is the
//    "barrier point" where per-thread measurements fold into the rank
//    view (deterministically: lanes are merged in index order).

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ccaperf {

class ThreadPool {
 public:
  /// `nlanes` counts the caller: 1 = inline serial (no worker threads).
  explicit ThreadPool(int nlanes);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return nlanes_; }

  /// Runs body(i, lane) for every i in [0, n), lane in [0, size()).
  /// Blocks until all n tasks have run (or a task threw — remaining tasks
  /// are abandoned and the first exception is rethrown here). A call from
  /// inside a top-level item shares its indices with idle lanes (the lane
  /// passed to body is the lane that runs the index); deeper calls run
  /// inline on the calling lane.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, int)>& body);

  /// Hook invoked on the calling thread after every *top-level* region
  /// (even one that ends in an exception), before parallel_for returns.
  /// Pass nullptr to clear. The measurement layer merges its per-lane
  /// shards here.
  void set_region_end_hook(std::function<void()> hook);

  /// Lane index of the calling thread inside an active region of *any*
  /// pool; 0 outside regions (the rank thread is always lane 0).
  static int current_lane();

  // -- introspection for tests/benches ------------------------------------
  std::uint64_t regions() const { return regions_; }
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  using Body = std::function<void(std::size_t, int)>;

  /// A nested call a lane opened inside its top-level item. Helpers join
  /// by bumping `users` and then checking `open`; the owner closes the
  /// slot and waits for `users` to drain before it returns, so no helper
  /// touches body/n after the call ends.
  struct alignas(64) Nested {
    std::atomic<bool> open{false};
    std::atomic<int> users{0};
    std::atomic<std::size_t> next{0};
    std::atomic<bool> abort{false};
    const Body* body = nullptr;  // written by the owner while closed
    std::size_t n = 0;
    std::exception_ptr error;  // first failure, guarded by err_mu
    std::mutex err_mu;
  };
  struct Lane {
    std::mutex mu;
    std::size_t next = 0;
    std::size_t end = 0;
    Nested nested;
  };
  struct Region {
    const Body* body = nullptr;
    std::atomic<std::size_t> done{0};
    std::atomic<bool> abort{false};
    std::exception_ptr error;  // first failure, guarded by err_mu
    std::mutex err_mu;
  };

  void worker_main(int lane);
  void run_lane(Region& rgn, int lane);
  bool grab_chunk(int lane, std::size_t& b, std::size_t& e);
  bool steal_chunk(int lane);
  void run_nested(std::size_t n, const Body& body, int lane);
  bool drain(Nested& slot, int lane);
  bool help_once(int lane);
  void help_until_done(std::uint64_t region, int lane);
  void wake_helpers(bool all);

  const int nlanes_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;

  std::mutex mu_;  // guards region_/epoch_, and writes of shutdown_
  std::condition_variable cv_work_;
  Region* region_ = nullptr;
  std::uint64_t epoch_ = 0;
  // Atomic so that a worker spinning for the next region stops at once.
  std::atomic<bool> shutdown_{false};

  // The region being run (its epoch) and how many of its lanes may still
  // start top-level items; the caller returns once busy_ reaches 0.
  std::atomic<std::uint64_t> live_region_{0};
  std::atomic<int> busy_{0};
  // Bumped when a claim leaves nested indices for others and when a region
  // starts or its last lane runs out of top-level items; idle lanes park
  // on it.
  std::atomic<std::uint32_t> help_epoch_{0};

  std::function<void()> region_end_hook_;
  std::uint64_t regions_ = 0;
  std::atomic<std::uint64_t> steals_{0};
};

/// Lane count requested via CCAPERF_THREADS (clamped to [1, 256]);
/// 1 when unset. Raises when the value is not an integer.
int configured_threads();

/// The calling thread's rank-local pool, created on first use with
/// configured_threads() lanes. Each mpp rank thread gets its own pool
/// (thread_local), mirroring the one-Registry-per-rank measurement model.
ThreadPool& rank_pool();

/// Rebuilds the calling thread's rank_pool() with `nlanes` lanes. Only
/// safe while no component holds a hook or shard set sized to the old
/// pool — i.e. between app assemblies. A program that sets the lane count
/// itself calls this first thing in its rank main: a 1-rank
/// mpp::Runtime::run runs rank 0 on the caller's thread, so a pool built
/// by an earlier run on that thread would otherwise be reused.
void set_rank_pool_threads(int nlanes);

}  // namespace ccaperf
