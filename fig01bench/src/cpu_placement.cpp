#include "cpu_placement.hpp"

#include <immintrin.h>
#include <pthread.h>
#include <sched.h>

#include "support/thread_pool.hpp"

namespace fig01bench {

namespace {

std::atomic<const IdlePollers*> g_live{nullptr};

double clock_s(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

}  // namespace

IdlePollers::IdlePollers() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  if (cpus_.empty()) return;
  pin_self({cpus_[0]});

  clocks_.assign(cpus_.size(), clockid_t{});
  ready_.assign(cpus_.size(), 0);
  std::atomic<std::size_t> settled{0};
  for (std::size_t i = 0; i < cpus_.size(); ++i)
    threads_.emplace_back([this, &settled, i] {
      const bool ok = prepare(cpus_[i], i);
      settled.fetch_add(1);
      if (ok) poll();
    });
  while (settled.load() < cpus_.size()) std::this_thread::yield();
  g_live.store(this);
}

IdlePollers::~IdlePollers() {
  g_live.store(nullptr);
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
  if (!cpus_.empty()) pin_self(cpus_);
}

bool IdlePollers::prepare(int cpu, std::size_t slot) {
  sched_param none{};
  if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &none) != 0) return false;
  pin_self({cpu});
  if (pthread_getcpuclockid(pthread_self(), &clocks_[slot]) != 0) return false;
  ready_[slot] = 1;
  running_.fetch_add(1);
  return true;
}

void IdlePollers::poll() const {
  // A few hundred cycles of work between pauses: a tight pause loop makes
  // the host treat the CPU as spinning on a lock and deschedule it.
  volatile unsigned x = 1;
  while (!stop_.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 64; ++i) x = x * 1664525u + 1013904223u;
    _mm_pause();
  }
}

double IdlePollers::cpu_s() {
  const IdlePollers* live = g_live.load();
  if (live == nullptr) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < live->clocks_.size(); ++i)
    if (live->ready_[i]) s += clock_s(live->clocks_[i]);
  return s;
}

void IdlePollers::pin_program_thread(int slot) {
  const IdlePollers* live = g_live.load();
  if (live == nullptr) return;
  const std::vector<int>& cpus = live->cpus_;
  pin_self({cpus[static_cast<std::size_t>(slot + 1) % cpus.size()]});
}

void pin_pool_lanes(int lanes) {
  if (lanes <= 1) return;
  // One item per lane, and no item ends before every lane holds one, so
  // no lane runs two. The lanes start on the rank thread's CPU: waiting
  // blocked, not spinning, lets each of them run there and move off.
  std::atomic<int> arrived{0};
  ccaperf::rank_pool().parallel_for(static_cast<std::size_t>(lanes),
                                    [&](std::size_t, int lane) {
                                      IdlePollers::pin_program_thread(lane);
                                      arrived.fetch_add(1);
                                      arrived.notify_all();
                                      for (int a = arrived.load(); a < lanes; a = arrived.load())
                                        arrived.wait(a);
                                    });
}

}  // namespace fig01bench
