#include "hwc/perf_events.hpp"

#include <cstring>
#include <utility>

#include "support/env.hpp"
#include "support/error.hpp"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define CCAPERF_HAVE_PERF_EVENTS 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace hwc {

HwcBackend env_hwc_backend() {
  const std::string v = ccaperf::env_text("CCAPERF_HWC").value_or("sim");
  if (v == "sim") return HwcBackend::sim;
  if (v == "perf") return HwcBackend::perf;
  ccaperf::env_malformed("CCAPERF_HWC", v, "sim|perf");
}

#if CCAPERF_HAVE_PERF_EVENTS

namespace {

long sys_perf_event_open(perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

const perf_event_mmap_page* ctrl(const void* page) {
  return static_cast<const perf_event_mmap_page*>(page);
}

// Compiler barrier: the seqlock protocol needs the lock reads ordered
// around the counter read (same-CPU ordering, so no fence instruction).
void rmb() { asm volatile("" ::: "memory"); }

#if defined(__x86_64__) || defined(__i386__)
std::uint64_t read_pmc(std::uint32_t idx) {
  std::uint32_t lo = 0, hi = 0;
  asm volatile("rdpmc" : "=a"(lo), "=d"(hi) : "c"(idx));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}
#else
std::uint64_t read_pmc(std::uint32_t) { return 0; }  // never taken: no rdpmc cap
#endif

}  // namespace

PerfCounter::~PerfCounter() { close_now(); }

PerfCounter::PerfCounter(PerfCounter&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      errno_(o.errno_),
      page_(std::exchange(o.page_, nullptr)) {}

PerfCounter& PerfCounter::operator=(PerfCounter&& o) noexcept {
  if (this != &o) {
    close_now();
    fd_ = std::exchange(o.fd_, -1);
    errno_ = o.errno_;
    page_ = std::exchange(o.page_, nullptr);
  }
  return *this;
}

void PerfCounter::close_now() {
  if (page_ != nullptr) {
    munmap(page_, static_cast<std::size_t>(sysconf(_SC_PAGESIZE)));
    page_ = nullptr;
  }
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool PerfCounter::open(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = type;
  attr.size = sizeof attr;
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;  // user-space only: works at paranoid <= 2
  attr.exclude_hv = 1;
  const long fd = sys_perf_event_open(&attr, /*pid=*/0, /*cpu=*/-1,
                                      /*group_fd=*/-1, /*flags=*/0);
  if (fd < 0) {
    errno_ = errno;
    return false;
  }
  fd_ = static_cast<int>(fd);
  // Control page for the rdpmc fast path; counting works without it.
  void* p = mmap(nullptr, static_cast<std::size_t>(sysconf(_SC_PAGESIZE)),
                 PROT_READ, MAP_SHARED, fd_, 0);
  if (p != MAP_FAILED && ctrl(p)->cap_user_rdpmc != 0)
    page_ = p;
  else if (p != MAP_FAILED)
    munmap(p, static_cast<std::size_t>(sysconf(_SC_PAGESIZE)));
  return true;
}

bool PerfCounter::rdpmc() const { return page_ != nullptr; }

std::uint64_t PerfCounter::read() const {
  if (page_ != nullptr) {
    // Seqlock read loop from the perf_event.h header comment: index == 0
    // means the event is not currently on a PMU (multiplexed out) and we
    // must take the slow path for that reading.
    const perf_event_mmap_page* pc = ctrl(page_);
    for (;;) {
      const std::uint32_t seq = pc->lock;
      rmb();
      const std::uint32_t idx = pc->index;
      const std::int64_t offset = static_cast<std::int64_t>(pc->offset);
      if (idx == 0) break;
      std::int64_t pmc = static_cast<std::int64_t>(read_pmc(idx - 1));
      const unsigned width = pc->pmc_width;
      pmc <<= 64 - width;  // sign-extend the raw counter
      pmc >>= 64 - width;
      rmb();
      if (pc->lock != seq) continue;  // torn: retry
      return static_cast<std::uint64_t>(offset + pmc);
    }
  }
  std::uint64_t value = 0;
  if (fd_ >= 0 &&
      ::read(fd_, &value, sizeof value) != static_cast<ssize_t>(sizeof value))
    return 0;
  return value;
}

namespace {

struct PerfEventSpec {
  const char* papi_name;
  std::uint32_t type;
  std::uint64_t config;
};

std::uint64_t hw_cache_config(std::uint64_t cache, std::uint64_t op,
                              std::uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

std::vector<PerfEventSpec> perf_event_table() {
  return {
      {"PAPI_TOT_CYC", PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {"PAPI_TOT_INS", PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {kL1Dcm, PERF_TYPE_HW_CACHE,
       hw_cache_config(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                       PERF_COUNT_HW_CACHE_RESULT_MISS)},
      // PAPI_L2_DCM has no portable perf alias; last-level-cache misses are
      // the closest architectural event (capacity misses past the private
      // levels — the quantity the paper's cache term models).
      {kL2Dcm, PERF_TYPE_HW_CACHE,
       hw_cache_config(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                       PERF_COUNT_HW_CACHE_RESULT_MISS)},
  };
}

}  // namespace

bool PerfBackend::compiled_in() { return true; }

HwcInstallReport PerfBackend::install(CounterRegistry& reg,
                                      HwcBackend requested) {
  HwcInstallReport report;
  report.requested = requested;
  report.active = HwcBackend::sim;
  if (requested == HwcBackend::sim) return report;

  std::vector<PerfCounter> opened;
  std::vector<const char*> names;
  for (const PerfEventSpec& spec : perf_event_table()) {
    PerfCounter c;
    if (c.open(spec.type, spec.config)) {
      opened.push_back(std::move(c));
      names.push_back(spec.papi_name);
      continue;
    }
    if (!report.detail.empty()) report.detail += "; ";
    report.detail += std::string(spec.papi_name) + ": " +
                     std::strerror(c.last_errno());
  }
  if (opened.empty()) {
    // Wholesale degradation: perf_event_open is walled off (seccomp,
    // perf_event_paranoid). Registry left untouched; sim stays active.
    if (report.detail.empty())
      report.detail = "perf_event_open: no events available";
    return report;
  }

  counters_ = std::move(opened);
  report.active = HwcBackend::perf;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const PerfCounter* c = &counters_[i];
    reg.add_source(names[i], [c] { return c->read(); });
    report.installed.emplace_back(names[i]);
  }
  return report;
}

#else  // !CCAPERF_HAVE_PERF_EVENTS

PerfCounter::~PerfCounter() = default;
PerfCounter::PerfCounter(PerfCounter&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)), errno_(o.errno_), page_(nullptr) {}
PerfCounter& PerfCounter::operator=(PerfCounter&& o) noexcept {
  fd_ = std::exchange(o.fd_, -1);
  errno_ = o.errno_;
  return *this;
}
void PerfCounter::close_now() {}
bool PerfCounter::open(std::uint32_t, std::uint64_t) {
  errno_ = 38;  // ENOSYS
  return false;
}
bool PerfCounter::rdpmc() const { return false; }
std::uint64_t PerfCounter::read() const { return 0; }

bool PerfBackend::compiled_in() { return false; }

HwcInstallReport PerfBackend::install(CounterRegistry&, HwcBackend requested) {
  HwcInstallReport report;
  report.requested = requested;
  report.active = HwcBackend::sim;
  if (requested == HwcBackend::perf)
    report.detail = "perf_events backend not compiled in on this platform";
  return report;
}

#endif  // CCAPERF_HAVE_PERF_EVENTS

HwcInstallReport PerfBackend::install(CounterRegistry& reg) {
  return install(reg, env_hwc_backend());
}

}  // namespace hwc
