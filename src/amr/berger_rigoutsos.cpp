#include "amr/berger_rigoutsos.hpp"

#include <algorithm>
#include <cmath>

namespace amr {

void FlagField::buffer(int n) {
  if (n <= 0) return;
  std::vector<char> out(flags_.size(), 0);
  for (int j = region_.lo().j; j <= region_.hi().j; ++j) {
    for (int i = region_.lo().i; i <= region_.hi().i; ++i) {
      if (!flags_[index({i, j})]) continue;
      const Box halo = Box{{i - n, j - n}, {i + n, j + n}} & region_;
      for (int jj = halo.lo().j; jj <= halo.hi().j; ++jj)
        for (int ii = halo.lo().i; ii <= halo.hi().i; ++ii)
          out[index({ii, jj})] = 1;
    }
  }
  flags_.swap(out);
}

void FlagField::clip_to(const std::vector<Box>& keep) {
  // All-ones bytes under the kept boxes, so the AND leaves those flags as
  // they are and clears every other one.
  std::vector<char> mask(flags_.size(), 0);
  for (const Box& b : keep) {
    const Box clipped = b & region_;
    for (int j = clipped.lo().j; j <= clipped.hi().j; ++j)
      std::fill_n(&mask[index({clipped.lo().i, j})], clipped.width(),
                  static_cast<char>(-1));
  }
  for (std::size_t k = 0; k < flags_.size(); ++k) flags_[k] &= mask[k];
}

long FlagField::count() const {
  long c = 0;
  for (char f : flags_) c += f;
  return c;
}

long FlagField::count_in(const Box& b) const {
  const Box clipped = b & region_;
  long c = 0;
  for (int j = clipped.lo().j; j <= clipped.hi().j; ++j)
    for (int i = clipped.lo().i; i <= clipped.hi().i; ++i)
      c += flags_[index({i, j})] ? 1 : 0;
  return c;
}

namespace {

/// Shrinks `b` to the bounding box of its flagged cells (empty if none).
Box bounding_box(const FlagField& flags, const Box& b) {
  int ilo = b.hi().i + 1, ihi = b.lo().i - 1;
  int jlo = b.hi().j + 1, jhi = b.lo().j - 1;
  for (int j = b.lo().j; j <= b.hi().j; ++j) {
    for (int i = b.lo().i; i <= b.hi().i; ++i) {
      if (flags.get({i, j})) {
        ilo = std::min(ilo, i);
        ihi = std::max(ihi, i);
        jlo = std::min(jlo, j);
        jhi = std::max(jhi, j);
      }
    }
  }
  if (ihi < ilo) return Box{};
  return Box{{ilo, jlo}, {ihi, jhi}};
}

/// Column (dim=0) or row (dim=1) signature: flag count per index plane.
std::vector<long> signature(const FlagField& flags, const Box& b, int dim) {
  const int n = dim == 0 ? b.width() : b.height();
  std::vector<long> sig(static_cast<std::size_t>(n), 0);
  for (int j = b.lo().j; j <= b.hi().j; ++j)
    for (int i = b.lo().i; i <= b.hi().i; ++i)
      if (flags.get({i, j}))
        ++sig[static_cast<std::size_t>(dim == 0 ? i - b.lo().i : j - b.lo().j)];
  return sig;
}

struct SplitPlan {
  bool found = false;
  int dim = 0;   // 0: split along i, 1: along j
  int cut = 0;   // last index (box coords) of the lower piece
};

/// Finds a zero ("hole") in either signature, preferring the one closest
/// to the box center, honoring the minimum width.
SplitPlan find_hole(const std::vector<long>& sx, const std::vector<long>& sy,
                    const Box& b, int min_width) {
  SplitPlan best;
  long best_dist = -1;
  auto scan = [&](const std::vector<long>& sig, int dim, int lo, int n) {
    for (int k = min_width; k <= n - min_width; ++k) {
      if (sig[static_cast<std::size_t>(k - 1)] == 0 ||
          sig[static_cast<std::size_t>(k)] == 0) {
        const long dist = std::abs(2 * k - n);
        if (!best.found || dist < best_dist) {
          best = SplitPlan{true, dim, lo + k - 1};
          best_dist = dist;
        }
      }
    }
  };
  scan(sx, 0, b.lo().i, b.width());
  scan(sy, 1, b.lo().j, b.height());
  return best;
}

/// Finds the strongest zero crossing of the discrete Laplacian of either
/// signature (Berger-Rigoutsos "inflection" split).
SplitPlan find_inflection(const std::vector<long>& sx, const std::vector<long>& sy,
                          const Box& b, int min_width) {
  SplitPlan best;
  long best_jump = 0;
  auto scan = [&](const std::vector<long>& sig, int dim, int lo, int n) {
    if (n < 4) return;
    std::vector<long> lap(static_cast<std::size_t>(n), 0);
    for (int k = 1; k + 1 < n; ++k)
      lap[static_cast<std::size_t>(k)] =
          sig[static_cast<std::size_t>(k - 1)] - 2 * sig[static_cast<std::size_t>(k)] +
          sig[static_cast<std::size_t>(k + 1)];
    for (int k = std::max(1, min_width - 1); k < std::min(n - 2, n - min_width); ++k) {
      const long a = lap[static_cast<std::size_t>(k)];
      const long c = lap[static_cast<std::size_t>(k + 1)];
      if ((a > 0 && c < 0) || (a < 0 && c > 0)) {
        const long jump = std::abs(a - c);
        if (jump > best_jump) {
          best = SplitPlan{true, dim, lo + k};
          best_jump = jump;
        }
      }
    }
  };
  scan(sx, 0, b.lo().i, b.width());
  scan(sy, 1, b.lo().j, b.height());
  return best;
}

void cluster(const FlagField& flags, Box box, const ClusterParams& p,
             std::vector<Box>& out) {
  box = bounding_box(flags, box);
  if (box.empty()) return;

  const long nflag = flags.count_in(box);
  const double eff = static_cast<double>(nflag) / static_cast<double>(box.num_pts());
  const bool too_wide = p.max_width > 0 && (box.width() > p.max_width ||
                                            box.height() > p.max_width);
  const bool can_split =
      box.width() >= 2 * p.min_width || box.height() >= 2 * p.min_width;
  if ((eff >= p.efficiency && !too_wide) || !can_split) {
    out.push_back(box);
    return;
  }

  const auto sx = signature(flags, box, 0);
  const auto sy = signature(flags, box, 1);

  SplitPlan plan = find_hole(sx, sy, box, p.min_width);
  if (!plan.found) plan = find_inflection(sx, sy, box, p.min_width);
  if (!plan.found) {
    // Bisect the longer splittable dimension.
    if (box.width() >= box.height() && box.width() >= 2 * p.min_width)
      plan = SplitPlan{true, 0, box.lo().i + box.width() / 2 - 1};
    else if (box.height() >= 2 * p.min_width)
      plan = SplitPlan{true, 1, box.lo().j + box.height() / 2 - 1};
  }
  if (!plan.found) {
    out.push_back(box);
    return;
  }

  Box lower, upper;
  if (plan.dim == 0) {
    lower = Box{box.lo(), {plan.cut, box.hi().j}};
    upper = Box{{plan.cut + 1, box.lo().j}, box.hi()};
  } else {
    lower = Box{box.lo(), {box.hi().i, plan.cut}};
    upper = Box{{box.lo().i, plan.cut + 1}, box.hi()};
  }
  cluster(flags, lower, p, out);
  cluster(flags, upper, p, out);
}

}  // namespace

std::vector<Box> berger_rigoutsos(const FlagField& flags, const ClusterParams& params) {
  CCAPERF_REQUIRE(params.min_width >= 1, "berger_rigoutsos: min_width >= 1");
  CCAPERF_REQUIRE(params.efficiency > 0.0 && params.efficiency <= 1.0,
                  "berger_rigoutsos: efficiency in (0, 1]");
  std::vector<Box> out;
  cluster(flags, flags.region(), params, out);
  return out;
}

}  // namespace amr
