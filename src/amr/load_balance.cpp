#include "amr/load_balance.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "support/error.hpp"

namespace amr {

namespace {

/// LPT placement over precomputed weights: heaviest first onto the
/// least-loaded rank. Writes each weight's rank to `owner` and fills
/// `load` (one entry per rank).
void place_lpt(const std::vector<long>& weight, int nranks,
               std::vector<int>& owner, std::vector<long>& load) {
  load.assign(static_cast<std::size_t>(nranks), 0);
  owner.assign(weight.size(), 0);
  // The sort is stable for determinism across ranks; placement uses a
  // min-heap of (load, rank) pairs with lazy invalidation, O(log nranks)
  // per patch instead of a linear min_element probe that degenerates at
  // high rank counts. The lexicographic pair order reproduces
  // min_element's tie-break exactly: lowest rank among equally loaded
  // ranks.
  std::vector<std::size_t> order(weight.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weight[a] > weight[b];
                   });
  using Slot = std::pair<long, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> heap;
  for (int r = 0; r < nranks; ++r) heap.emplace(0L, r);
  for (std::size_t k : order) {
    // Entries go stale when their rank is re-pushed with more load;
    // loads only grow, so a stale top is detected by value mismatch.
    while (heap.top().first !=
           load[static_cast<std::size_t>(heap.top().second)])
      heap.pop();
    const int r = heap.top().second;
    heap.pop();
    owner[k] = r;
    load[static_cast<std::size_t>(r)] += weight[k];
    heap.emplace(load[static_cast<std::size_t>(r)], r);
  }
}

/// Cuts `b` into `n` slabs of near-equal width (widths differ by at most
/// one cell) across its longer side, appended to `out` in index order.
void cut_slabs(const Box& b, int n, std::vector<Box>& out) {
  const bool along_i = b.width() >= b.height();
  const int lo = along_i ? b.lo().i : b.lo().j;
  const int len = along_i ? b.width() : b.height();
  for (int k = 0; k < n; ++k) {
    const int a = lo + k * len / n;
    const int z = lo + (k + 1) * len / n - 1;
    out.push_back(along_i ? Box{a, b.lo().j, z, b.hi().j}
                          : Box{b.lo().i, a, b.hi().i, z});
  }
}

long longer_side(const Box& b) { return std::max(b.width(), b.height()); }

double imbalance_of(long peak, long total, int nranks) {
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) / static_cast<double>(nranks);
  return static_cast<double>(peak) / mean;
}

}  // namespace

long lpt_makespan(const std::vector<Box>& boxes, int nranks) {
  CCAPERF_REQUIRE(nranks >= 1, "lpt_makespan: nranks >= 1");
  std::vector<long> weight(boxes.size());
  for (std::size_t k = 0; k < boxes.size(); ++k) weight[k] = boxes[k].num_pts();
  std::vector<int> owner;
  std::vector<long> load;
  place_lpt(weight, nranks, owner, load);
  return *std::max_element(load.begin(), load.end());
}

std::vector<Box> split_for_balance(std::vector<Box> boxes, int nranks,
                                   int min_width) {
  CCAPERF_REQUIRE(nranks >= 1, "split_for_balance: nranks >= 1");
  if (nranks == 1 || boxes.empty()) return boxes;
  const long min_w = std::max(1, min_width);

  // 1. Cut every box above the per-rank share into equal slabs across
  // its longer side: LPT cannot place less than one whole box on a rank,
  // so no box may carry more than a rank's share of the level.
  const long share = std::max(1L, (total_pts(boxes) + nranks - 1) / nranks);
  std::vector<Box> cut;
  for (const Box& b : boxes) {
    const long want = (b.num_pts() + share - 1) / share;
    const auto n = static_cast<int>(std::min(want, longer_side(b) / min_w));
    if (n >= 2)
      cut_slabs(b, n, cut);
    else
      cut.push_back(b);
  }
  // Slabs cut to a width floor can still leave LPT worse off than the
  // whole boxes did; keep whichever list places better.
  long makespan = lpt_makespan(boxes, nranks);
  if (const long m = lpt_makespan(cut, nranks); m <= makespan) {
    boxes = std::move(cut);
    makespan = m;
  }

  // 2. Bisect the largest splittable box while that strictly lowers the
  // makespan. The first of equally large boxes goes first, and the halves
  // take its place in the list, so every rank builds the same list.
  for (;;) {
    std::size_t pick = boxes.size();
    for (std::size_t k = 0; k < boxes.size(); ++k)
      if (longer_side(boxes[k]) >= 2 * min_w &&
          (pick == boxes.size() || boxes[k].num_pts() > boxes[pick].num_pts()))
        pick = k;
    if (pick == boxes.size()) break;
    std::vector<Box> trial(boxes.begin(), boxes.begin() + static_cast<long>(pick));
    cut_slabs(boxes[pick], 2, trial);
    trial.insert(trial.end(), boxes.begin() + static_cast<long>(pick) + 1,
                 boxes.end());
    const long m = lpt_makespan(trial, nranks);
    if (m >= makespan) break;
    boxes = std::move(trial);
    makespan = m;
  }
  return boxes;
}

double balance_owners(std::vector<PatchInfo>& patches, int nranks) {
  CCAPERF_REQUIRE(nranks >= 1, "balance_owners: nranks >= 1");
  // Weights are precomputed once so the sort comparator doesn't recompute
  // box areas.
  std::vector<long> weight(patches.size());
  for (std::size_t k = 0; k < patches.size(); ++k)
    weight[k] = patches[k].box.num_pts();
  std::vector<int> owner;
  std::vector<long> load;
  place_lpt(weight, nranks, owner, load);
  for (std::size_t k = 0; k < patches.size(); ++k) patches[k].owner = owner[k];
  const long total = std::accumulate(load.begin(), load.end(), 0L);
  const long peak =
      load.empty() ? 0 : *std::max_element(load.begin(), load.end());
  return imbalance_of(peak, total, nranks);
}

}  // namespace amr
