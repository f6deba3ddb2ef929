#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace fig01bench {

Totals& Totals::operator+=(const Totals& o) {
  for (std::size_t i = 0; i < kLayers; ++i) {
    self_ns[i] += o.self_ns[i];
    total_ns[i] += o.total_ns[i];
    calls[i] += o.calls[i];
  }
  msgs += o.msgs;
  msg_bytes += o.msg_bytes;
  modeled_delay_us += o.modeled_delay_us;
  collectives += o.collectives;
  hub_lines += o.hub_lines;
  return *this;
}

Totals Totals::operator-(const Totals& o) const {
  Totals d = *this;
  for (std::size_t i = 0; i < kLayers; ++i) {
    d.self_ns[i] -= o.self_ns[i];
    d.total_ns[i] -= o.total_ns[i];
    d.calls[i] -= o.calls[i];
  }
  d.msgs -= o.msgs;
  d.msg_bytes -= o.msg_bytes;
  d.modeled_delay_us -= o.modeled_delay_us;
  d.collectives -= o.collectives;
  d.hub_lines -= o.hub_lines;
  return d;
}

void SpanStack::begin(Layer l, double t_ns) {
  if (depth_ == kMaxDepth) throw std::runtime_error("SpanStack: nesting too deep");
  frames_[static_cast<std::size_t>(depth_++)] = Frame{l, t_ns, 0.0};
  ++totals_.calls[static_cast<std::size_t>(l)];
}

void SpanStack::end(double t_ns) {
  if (depth_ == 0) throw std::runtime_error("SpanStack: end without begin");
  const Frame& f = frames_[static_cast<std::size_t>(--depth_)];
  const double d = t_ns - f.t0_ns;
  const auto i = static_cast<std::size_t>(f.layer);
  totals_.total_ns[i] += d;
  totals_.self_ns[i] += d - f.child_ns;
  if (depth_ > 0) frames_[static_cast<std::size_t>(depth_ - 1)].child_ns += d;
}

namespace {

std::mutex g_stacks_mu;
std::vector<std::unique_ptr<SpanStack>>& stacks() {
  static std::vector<std::unique_ptr<SpanStack>> s;
  return s;
}

}  // namespace

SpanStack& thread_stack() {
  thread_local SpanStack* t_stack = nullptr;
  if (t_stack == nullptr) {
    std::lock_guard<std::mutex> lock(g_stacks_mu);
    stacks().push_back(std::make_unique<SpanStack>());
    t_stack = stacks().back().get();
  }
  return *t_stack;
}

Totals all_stacks_totals() {
  std::lock_guard<std::mutex> lock(g_stacks_mu);
  Totals t;
  for (const auto& s : stacks()) t += s->totals();
  return t;
}

namespace {

/// 1-based nearest rank of percentile p in a sample of n. The epsilon keeps
/// p = 99.9 (not exact in binary) from rounding one rank too high.
std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::min(n, static_cast<std::size_t>(std::max(r, 1.0)));
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile: empty sample");
  return sorted[nearest_rank(p, sorted.size()) - 1];
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kCandidates[] = {99.9, 99.0, 90.0, 50.0};
  for (const double p : kCandidates) {
    if (n > 0 && n - nearest_rank(p, n) >= min_beyond) return p;
  }
  return 0.0;
}

}  // namespace fig01bench
