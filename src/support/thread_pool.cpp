#include "support/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "support/env.hpp"
#include "support/error.hpp"

namespace ccaperf {

namespace {

// Lane of the calling thread inside an active region; -1 outside. Kept
// separate from the public current_lane() so nesting detection can tell
// "lane 0 inside a region" apart from "not in a region".
thread_local int t_lane = -1;
// Pool whose region the calling thread is in; nullptr outside regions.
thread_local const ThreadPool* t_pool = nullptr;
// True while the calling lane runs an index of a nested call, its own or
// one it helps: a parallel_for issued there runs inline.
thread_local bool t_nested = false;

// How long a lane with nothing to do spins for a nested slot to open
// before it parks: long enough to bridge the gaps between the nested calls
// of one patch, short enough that lanes outnumbering cores give their CPU
// back within a fraction of a millisecond.
constexpr std::chrono::microseconds kSpinBeforePark{100};

// Lanes of all live multi-lane pools. While they outnumber the CPUs a
// spinning lane only takes time from a working one, so lanes park at once.
std::atomic<int> g_pool_lanes{0};

std::chrono::microseconds spin_budget() {
  static const int cpus =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return g_pool_lanes.load(std::memory_order_relaxed) <= cpus
             ? kSpinBeforePark
             : std::chrono::microseconds{0};
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

int ThreadPool::current_lane() { return t_lane < 0 ? 0 : t_lane; }

ThreadPool::ThreadPool(int nlanes) : nlanes_(std::max(1, nlanes)) {
  lanes_.reserve(static_cast<std::size_t>(nlanes_));
  for (int l = 0; l < nlanes_; ++l) lanes_.push_back(std::make_unique<Lane>());
  workers_.reserve(static_cast<std::size_t>(nlanes_ - 1));
  for (int l = 1; l < nlanes_; ++l)
    workers_.emplace_back([this, l] { worker_main(l); });
  if (nlanes_ > 1) g_pool_lanes.fetch_add(nlanes_, std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
  if (nlanes_ > 1) g_pool_lanes.fetch_sub(nlanes_, std::memory_order_relaxed);
}

void ThreadPool::set_region_end_hook(std::function<void()> hook) {
  region_end_hook_ = std::move(hook);
}

bool ThreadPool::grab_chunk(int lane, std::size_t& b, std::size_t& e) {
  Lane& L = *lanes_[static_cast<std::size_t>(lane)];
  std::lock_guard<std::mutex> lock(L.mu);
  if (L.next >= L.end) return false;
  // Take a fraction from the front; thieves halve from the back, so the
  // owner's chunks shrink as the range drains (lazy binary splitting).
  const std::size_t avail = L.end - L.next;
  const std::size_t take =
      std::max<std::size_t>(1, avail / (2 * static_cast<std::size_t>(nlanes_)));
  b = L.next;
  e = L.next + take;
  L.next = e;
  return true;
}

bool ThreadPool::steal_chunk(int lane) {
  // Scan victims round-robin from our right neighbour; move the back half
  // of the first non-empty range into our own (empty) lane so other
  // thieves can keep splitting it.
  for (int k = 1; k < nlanes_; ++k) {
    const int victim = (lane + k) % nlanes_;
    Lane& V = *lanes_[static_cast<std::size_t>(victim)];
    std::size_t sb = 0, se = 0;
    {
      std::lock_guard<std::mutex> lock(V.mu);
      const std::size_t avail = V.end - V.next;
      if (avail == 0) continue;
      const std::size_t take = (avail + 1) / 2;
      sb = V.end - take;
      se = V.end;
      V.end = sb;
    }
    Lane& L = *lanes_[static_cast<std::size_t>(lane)];
    {
      std::lock_guard<std::mutex> lock(L.mu);
      L.next = sb;
      L.end = se;
    }
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::run_lane(Region& rgn, int lane) {
  while (!rgn.abort.load(std::memory_order_relaxed)) {
    std::size_t b = 0, e = 0;
    if (!grab_chunk(lane, b, e)) {
      if (!steal_chunk(lane)) break;
      continue;
    }
    for (std::size_t i = b; i < e; ++i) {
      if (rgn.abort.load(std::memory_order_relaxed)) break;
      try {
        (*rgn.body)(i, lane);
        rgn.done.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(rgn.err_mu);
          if (!rgn.error) rgn.error = std::current_exception();
        }
        rgn.abort.store(true, std::memory_order_relaxed);
      }
    }
  }
}

void ThreadPool::wake_helpers(bool all) {
  help_epoch_.fetch_add(1);
  if (all)
    help_epoch_.notify_all();
  else
    help_epoch_.notify_one();
}

bool ThreadPool::drain(Nested& slot, int lane) {
  // Guided chunks: a share of what is left, shrinking as the call drains,
  // so lanes claim contiguous indices (neighbouring rows or columns write
  // neighbouring memory) with few trips to the shared counter.
  const std::size_t share = 2 * static_cast<std::size_t>(nlanes_);
  bool ran = false;
  std::size_t b = slot.next.load(std::memory_order_relaxed);
  while (!slot.abort.load(std::memory_order_relaxed) && b < slot.n) {
    const std::size_t e = b + std::max<std::size_t>(1, (slot.n - b) / share);
    if (!slot.next.compare_exchange_weak(b, e, std::memory_order_relaxed))
      continue;
    // Indices left over: wake one parked lane, which wakes the next if it
    // too leaves some, so wake-ups follow the work instead of the lanes.
    if (e < slot.n) wake_helpers(false);
    ran = true;
    for (std::size_t i = b; i < e; ++i) {
      if (slot.abort.load(std::memory_order_relaxed)) break;
      try {
        (*slot.body)(i, lane);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(slot.err_mu);
          if (!slot.error) slot.error = std::current_exception();
        }
        slot.abort.store(true, std::memory_order_relaxed);
      }
    }
    b = slot.next.load(std::memory_order_relaxed);
  }
  return ran;
}

void ThreadPool::run_nested(std::size_t n, const Body& body, int lane) {
  Nested& slot = lanes_[static_cast<std::size_t>(lane)]->nested;
  slot.body = &body;
  slot.n = n;
  slot.next.store(0, std::memory_order_relaxed);
  slot.abort.store(false, std::memory_order_relaxed);
  slot.open.store(true);
  t_nested = true;
  drain(slot, lane);
  // Close, then wait out helpers that joined: seq_cst on both sides
  // means a helper that saw the slot open is counted in `users` here.
  slot.open.store(false);
  // A helper is at most one chunk behind; park only if it was preempted.
  const auto parked_after = std::chrono::steady_clock::now() + spin_budget();
  for (int users = slot.users.load(); users != 0; users = slot.users.load()) {
    if (std::chrono::steady_clock::now() < parked_after)
      cpu_relax();
    else
      slot.users.wait(users);
  }
  t_nested = false;
  if (slot.error) {
    std::exception_ptr e = std::move(slot.error);
    slot.error = nullptr;
    std::rethrow_exception(e);
  }
}

bool ThreadPool::help_once(int lane) {
  bool ran = false;
  for (int k = 1; k < nlanes_; ++k) {
    Nested& slot = lanes_[static_cast<std::size_t>((lane + k) % nlanes_)]->nested;
    if (!slot.open.load(std::memory_order_relaxed)) continue;
    slot.users.fetch_add(1);
    if (slot.open.load()) ran = drain(slot, lane) || ran;
    if (slot.users.fetch_sub(1) == 1) slot.users.notify_all();
  }
  return ran;
}

void ThreadPool::help_until_done(std::uint64_t region, int lane) {
  // The last lane out of top-level work ends the helping: no item is
  // left to open a nested slot.
  if (busy_.fetch_sub(1) == 1) {
    wake_helpers(true);
    return;
  }
  using Clock = std::chrono::steady_clock;
  t_nested = true;
  const std::chrono::microseconds spin = spin_budget();
  Clock::time_point idle_since{};
  bool idle = false;
  for (;;) {
    // Read the epoch before looking: a claim that leaves indices for
    // others, or a region that ends or starts, after the look bumps it,
    // so the wait returns at once.
    const std::uint32_t seen = help_epoch_.load();
    if (help_once(lane)) {
      idle = false;
      continue;
    }
    // A lane late to leave this region may see the next one's busy_; the
    // next region stores live_region_ first, so it then sees that too.
    if (busy_.load() == 0 || live_region_.load() != region) break;
    const Clock::time_point now = Clock::now();
    if (!idle) {
      idle = true;
      idle_since = now;
    }
    if (now - idle_since < spin) {
      cpu_relax();
      continue;
    }
    help_epoch_.wait(seen);
    idle = false;
  }
  t_nested = false;
}

void ThreadPool::worker_main(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    // Spin for the next region before parking, as helping does for nested
    // slots: the caller waits until every lane has passed through its
    // region, so a parked worker costs each region a wake-up even when it
    // has no item to run.
    const auto parked_after = std::chrono::steady_clock::now() + spin_budget();
    while (live_region_.load() == seen &&
           !shutdown_.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < parked_after)
      cpu_relax();
    Region* rgn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {
        return shutdown_ || (region_ != nullptr && epoch_ != seen);
      });
      if (shutdown_) return;
      rgn = region_;
      seen = epoch_;
    }
    // The region (on the caller's stack) may end once this lane leaves
    // run_lane; helping touches only pool state.
    t_lane = lane;
    t_pool = this;
    run_lane(*rgn, lane);
    help_until_done(seen, lane);
    t_lane = -1;
    t_pool = nullptr;
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, int)>& body) {
  if (t_lane >= 0) {
    // Nested region, no hook (the enclosing top-level region fires it
    // once). Inside a top-level item of this pool idle lanes help;
    // anything deeper runs inline on the calling lane.
    if (t_pool == this && !t_nested && nlanes_ > 1 && n > 1) {
      run_nested(n, body, t_lane);
      return;
    }
    const int lane = t_lane;
    for (std::size_t i = 0; i < n; ++i) body(i, lane);
    return;
  }
  if (nlanes_ == 1 || n == 0) {
    t_lane = 0;
    try {
      for (std::size_t i = 0; i < n; ++i) body(i, 0);
    } catch (...) {
      t_lane = -1;
      ++regions_;
      if (region_end_hook_) region_end_hook_();
      throw;
    }
    t_lane = -1;
    ++regions_;
    if (region_end_hook_) region_end_hook_();
    return;
  }

  Region rgn;
  rgn.body = &body;
  std::uint64_t region = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int l = 0; l < nlanes_; ++l) {
      Lane& L = *lanes_[static_cast<std::size_t>(l)];
      std::lock_guard<std::mutex> lane_lock(L.mu);
      L.next = n * static_cast<std::size_t>(l) /
               static_cast<std::size_t>(nlanes_);
      L.end = n * static_cast<std::size_t>(l + 1) /
              static_cast<std::size_t>(nlanes_);
    }
    region_ = &rgn;
    region = ++epoch_;
    live_region_.store(region);
    busy_.store(nlanes_);
  }
  cv_work_.notify_all();
  wake_helpers(true);  // a worker still helping the last region moves on

  t_lane = 0;
  t_pool = this;
  run_lane(rgn, 0);
  help_until_done(region, 0);  // returns once every item has run
  t_lane = -1;
  t_pool = nullptr;

  {
    std::lock_guard<std::mutex> lock(mu_);
    region_ = nullptr;
  }
  ++regions_;
  if (region_end_hook_) region_end_hook_();
  if (rgn.error) std::rethrow_exception(rgn.error);
  CCAPERF_REQUIRE(rgn.done.load(std::memory_order_relaxed) == n,
                  "ThreadPool::parallel_for: lost tasks");
}

int configured_threads() {
  return std::clamp(env_int<int>("CCAPERF_THREADS").value_or(1), 1, 256);
}

namespace {

std::unique_ptr<ThreadPool>& rank_pool_slot() {
  thread_local std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& rank_pool() {
  std::unique_ptr<ThreadPool>& slot = rank_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(configured_threads());
  return *slot;
}

void set_rank_pool_threads(int nlanes) {
  rank_pool_slot() = std::make_unique<ThreadPool>(nlanes);
}

}  // namespace ccaperf
