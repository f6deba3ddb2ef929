#include "amr/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/thread_pool.hpp"

namespace amr {

namespace {

double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

int ipow(int base, int exp) {
  int v = 1;
  for (int k = 0; k < exp; ++k) v *= base;
  return v;
}

}  // namespace

Hierarchy::Hierarchy(mpp::Comm& world, HierarchyConfig cfg)
    : comm_(world.dup()), cfg_(std::move(cfg)) {
  CCAPERF_REQUIRE(!cfg_.domain.empty(), "Hierarchy: empty domain");
  CCAPERF_REQUIRE(cfg_.max_levels >= 1 && cfg_.ratio >= 2,
                  "Hierarchy: need max_levels >= 1, ratio >= 2");
  CCAPERF_REQUIRE(cfg_.nghost >= 1 && cfg_.ncomp >= 1,
                  "Hierarchy: need nghost >= 1, ncomp >= 1");
}

Level& Hierarchy::level(int l) {
  CCAPERF_REQUIRE(l >= 0 && l < num_levels(), "Hierarchy: bad level index");
  return levels_[static_cast<std::size_t>(l)];
}

const Level& Hierarchy::level(int l) const {
  CCAPERF_REQUIRE(l >= 0 && l < num_levels(), "Hierarchy: bad level index");
  return levels_[static_cast<std::size_t>(l)];
}

double Hierarchy::dx(int l) const { return cfg_.geom.dx0 / ipow(cfg_.ratio, l); }
double Hierarchy::dy(int l) const { return cfg_.geom.dy0 / ipow(cfg_.ratio, l); }

Box Hierarchy::domain_at(int l) const {
  Box d = cfg_.domain;
  for (int k = 0; k < l; ++k) d = d.refined(cfg_.ratio);
  return d;
}

int Hierarchy::next_tag(int count) {
  // Exchanges on this hierarchy are serialized (each drains all messages
  // before returning), so tags only need to be unique within one exchange;
  // the monotone counter is belt-and-braces. Wrap long before overflow.
  if (tag_counter_ > (1 << 30) - count) tag_counter_ = 0;
  const int t = tag_counter_;
  tag_counter_ += count;
  return t;
}

void Hierarchy::allocate_local(Level& lvl) {
  for (const PatchInfo& p : lvl.patches()) {
    if (p.owner != rank()) continue;
    lvl.local_data().emplace(
        p.id, PatchData<double>(p.box, cfg_.nghost, cfg_.ncomp, 0.0));
  }
}

void Hierarchy::init_level0() {
  CCAPERF_REQUIRE(levels_.empty(), "init_level0: already initialized");
  Level lvl(0, cfg_.domain, 1);

  // Tile the domain into roughly level0_patch_size-edged boxes.
  const int tile = std::max(4, cfg_.level0_patch_size);
  const int nx = std::max(1, (cfg_.domain.width() + tile - 1) / tile);
  const int ny = std::max(1, (cfg_.domain.height() + tile - 1) / tile);
  for (int ty = 0; ty < ny; ++ty) {
    for (int tx = 0; tx < nx; ++tx) {
      const int ilo = cfg_.domain.lo().i + tx * cfg_.domain.width() / nx;
      const int ihi = cfg_.domain.lo().i + (tx + 1) * cfg_.domain.width() / nx - 1;
      const int jlo = cfg_.domain.lo().j + ty * cfg_.domain.height() / ny;
      const int jhi = cfg_.domain.lo().j + (ty + 1) * cfg_.domain.height() / ny - 1;
      lvl.patches().push_back(PatchInfo{next_patch_id_++, Box{ilo, jlo, ihi, jhi}, 0});
    }
  }
  balance_owners(lvl.patches(), nranks());
  allocate_local(lvl);
  levels_.push_back(std::move(lvl));
}

ExchangeStats Hierarchy::fill_ghosts(int l, const BcSpec& bc) {
  if (l > 0) prolong(l, /*ghosts_only=*/true);
  return exchange_and_bc(l, bc);
}

ExchangeStats Hierarchy::exchange_and_bc(int l, const BcSpec& bc) {
  Level& lvl = level(l);
  const ExchangeStats stats =
      exchange_ghosts(comm_, lvl, cfg_.nghost, next_tag(1));
  const Box dom = domain_at(l);
  // Physical BC fills are per-patch independent (ghost writes only, after
  // the exchange has drained) — fan them out over the rank pool's lanes.
  std::vector<PatchData<double>*> local;
  local.reserve(lvl.local_data().size());
  for (auto& [id, data] : lvl.local_data()) local.push_back(&data);
  ccaperf::rank_pool().parallel_for(local.size(), [&](std::size_t k, int) {
    fill_physical_bc(*local[k], dom, bc);
  });
  return stats;
}

std::vector<PatchData<double>> Hierarchy::gather_coarse_halos(const Level& coarse,
                                                              const Level& fine) {
  const int r = cfg_.ratio;
  const Box cdom = coarse.domain();
  const std::vector<PatchInfo>& fp = fine.patches();

  // Identical synthetic destination set on every rank: one halo patch per
  // fine patch, on coarse index space, owned by the fine patch's owner and
  // identified by the fine patch's position in the list.
  std::vector<PatchInfo> halos_meta;
  halos_meta.reserve(fp.size());
  std::vector<PatchData<double>> halos(fp.size());
  for (std::size_t k = 0; k < fp.size(); ++k) {
    const Box halo = fp[k].box.grown(cfg_.nghost).coarsened(r) & cdom;
    halos_meta.push_back(PatchInfo{static_cast<int>(k), halo, fp[k].owner});
    if (fp[k].owner == rank() && !halo.empty())
      halos[k] = PatchData<double>(halo, 0, cfg_.ncomp, 0.0);
  }

  auto src = [&coarse](int id) -> const PatchData<double>* {
    return coarse.has_data(id) ? &coarse.data(id) : nullptr;
  };
  auto dst = [&halos](int k) -> PatchData<double>* {
    return &halos[static_cast<std::size_t>(k)];
  };
  exchange_copy(comm_, coarse.patches(), src, halos_meta, dst,
                [](const PatchInfo& p) { return p.box; },
                /*skip_same_id=*/false, next_tag(1));
  return halos;
}

void Hierarchy::interpolate_patch(const PatchData<double>& coarse_halo,
                                  PatchData<double>& fine, const Box& target,
                                  int ratio) {
  // Only fine cells whose coarse cell lies in the halo are written; the
  // rest are outside the domain and get the physical BC later.
  const Box h = coarse_halo.interior();
  const Box t = target & h.refined(ratio);
  if (t.empty()) return;

  // Per fine column: its coarse column, relative to t's first one, and the
  // sub-cell offset fx of the fine cell center within the coarse cell, in
  // coarse-cell units, in [-0.5, 0.5). Per coarse cell of the current
  // coarse row: its value and both limited slopes, shared by the r x r
  // fine cells it covers. Both are kept per lane, so a call allocates
  // nothing once the lane has seen its widest target.
  struct Column {
    int k;
    double fx;
  };
  struct Coarse {
    double center, sx, sy;
  };
  thread_local std::vector<Column> cols;
  thread_local std::vector<Coarse> row;
  const int I0 = floor_div(t.lo().i, ratio);
  cols.resize(static_cast<std::size_t>(t.width()));
  for (int i = t.lo().i; i <= t.hi().i; ++i) {
    const int I = floor_div(i, ratio);
    cols[static_cast<std::size_t>(i - t.lo().i)] =
        Column{I - I0, (static_cast<double>(i - I * ratio) + 0.5) / ratio - 0.5};
  }
  row.resize(static_cast<std::size_t>(floor_div(t.hi().i, ratio) - I0 + 1));

  const std::ptrdiff_t stride = coarse_halo.row_stride();
  for (int c = 0; c < fine.ncomp(); ++c) {
    int filled = floor_div(t.lo().j, ratio) - 1;  // coarse row held in `row`
    for (int j = t.lo().j; j <= t.hi().j; ++j) {
      const int J = floor_div(j, ratio);
      if (J != filled) {
        filled = J;
        const bool yslope = J > h.lo().j && J < h.hi().j;
        const double* mid = &coarse_halo(I0, J, c);
        for (std::size_t m = 0; m < row.size(); ++m) {
          const int I = I0 + static_cast<int>(m);
          const auto k = static_cast<std::ptrdiff_t>(m);
          const double center = mid[k];
          double sx = 0.0, sy = 0.0;
          if (I > h.lo().i && I < h.hi().i)
            sx = minmod(mid[k + 1] - center, center - mid[k - 1]);
          if (yslope)
            sy = minmod(mid[k + stride] - center, center - mid[k - stride]);
          row[m] = Coarse{center, sx, sy};
        }
      }
      const double fy = (static_cast<double>(j - J * ratio) + 0.5) / ratio - 0.5;
      double* out = &fine(t.lo().i, j, c);
      for (const Column& col : cols) {
        const Coarse& q = row[static_cast<std::size_t>(col.k)];
        *out++ = q.center + q.sx * col.fx + q.sy * fy;
      }
    }
  }
}

void Hierarchy::fill_from_coarse(const Level& coarse, Level& fine,
                                 bool ghosts_only) {
  const auto halos = gather_coarse_halos(coarse, fine);

  // Interpolation after the halo gather is patch-local: parallel over the
  // owned fine patches (the communication above stays on the rank thread).
  struct Job {
    const PatchData<double>* halo;
    PatchData<double>* data;
    const PatchInfo* info;
  };
  std::vector<Job> jobs;
  for (std::size_t k = 0; k < halos.size(); ++k) {
    if (halos[k].empty()) continue;
    const PatchInfo& f = fine.patches()[k];
    jobs.push_back(Job{&halos[k], &fine.data(f.id), &f});
  }
  const Box fdom = fine.domain();
  ccaperf::rank_pool().parallel_for(jobs.size(), [&](std::size_t k, int) {
    const Job& job = jobs[k];
    if (ghosts_only) {
      const Box ghost_region = job.info->box.grown(cfg_.nghost) & fdom;
      for (const Box& piece : box_subtract(ghost_region, job.info->box))
        interpolate_patch(*job.halo, *job.data, piece, cfg_.ratio);
    } else {
      interpolate_patch(*job.halo, *job.data, job.info->box, cfg_.ratio);
    }
  });
}

void Hierarchy::prolong(int fine_l, bool ghosts_only) {
  CCAPERF_REQUIRE(fine_l >= 1 && fine_l < num_levels(), "prolong: bad level");
  fill_from_coarse(level(fine_l - 1), level(fine_l), ghosts_only);
}

void Hierarchy::restrict_level(int fine_l) {
  CCAPERF_REQUIRE(fine_l >= 1 && fine_l < num_levels(), "restrict: bad level");
  const Level& fine = level(fine_l);
  Level& coarse = level(fine_l - 1);
  const int r = cfg_.ratio;

  // Synthetic source set: per fine patch, its conservative average on the
  // coarse index space, owned by the fine owner and identified by the
  // fine patch's position in the list.
  const std::vector<PatchInfo>& fp = fine.patches();
  std::vector<PatchInfo> avg_meta;
  avg_meta.reserve(fp.size());
  std::vector<std::size_t> owned;
  for (std::size_t k = 0; k < fp.size(); ++k) {
    avg_meta.push_back(PatchInfo{static_cast<int>(k), fp[k].box.coarsened(r),
                                 fp[k].owner});
    if (fp[k].owner == rank()) owned.push_back(k);
  }

  // Conservative averages are patch-local: each is computed in parallel
  // straight into its position's slot.
  std::vector<PatchData<double>> avgs(fp.size());
  ccaperf::rank_pool().parallel_for(owned.size(), [&](std::size_t i, int) {
    const std::size_t k = owned[i];
    const Box& cbox = avg_meta[k].box;
    PatchData<double>& avg = avgs[k];
    avg = PatchData<double>(cbox, 0, cfg_.ncomp, 0.0);
    const PatchData<double>& src = fine.data(fp[k].id);
    const double inv = 1.0 / (r * r);
    const int n = cbox.width();
    for (int c = 0; c < cfg_.ncomp; ++c) {
      for (int J = cbox.lo().j; J <= cbox.hi().j; ++J) {
        // The zeroed average row is the accumulator. Each coarse cell
        // adds its r x r children in (jj, ii) order; another order would
        // round differently.
        double* sum = &avg(cbox.lo().i, J, c);
        for (int jj = 0; jj < r; ++jj) {
          const double* row = &src(cbox.lo().i * r, J * r + jj, c);
          for (int ii = 0; ii < r; ++ii)
            for (int x = 0; x < n; ++x) sum[x] += row[x * r + ii];
        }
        for (int x = 0; x < n; ++x) sum[x] *= inv;
      }
    }
  });

  auto src_fn = [&avgs](int k) -> const PatchData<double>* {
    return &avgs[static_cast<std::size_t>(k)];
  };
  auto dst_fn = [&coarse](int id) -> PatchData<double>* {
    return coarse.has_data(id) ? &coarse.data(id) : nullptr;
  };
  exchange_copy(comm_, avg_meta, src_fn, coarse.patches(), dst_fn,
                [](const PatchInfo& p) { return p.box; },
                /*skip_same_id=*/false, next_tag(1));
}

void Hierarchy::merge_flags(FlagField& flags) {
  auto bytes = flags.raw();
  comm_.allreduce_bytes(bytes.data(), bytes.data(), sizeof(char), bytes.size(),
                        [](void* acc, const void* in, std::size_t count) {
                          auto* a = static_cast<char*>(acc);
                          const auto* b = static_cast<const char*>(in);
                          for (std::size_t k = 0; k < count; ++k)
                            a[k] = a[k] || b[k] ? 1 : 0;
                        });
}

void Hierarchy::regrid(const FlagFn& flag_fn, const BcSpec& bc) {
  CCAPERF_REQUIRE(!levels_.empty(), "regrid: call init_level0 first");
  CCAPERF_REQUIRE(flag_fn != nullptr, "regrid: null flag function");
  const int r = cfg_.ratio;

  for (int l = 0; l <= cfg_.max_levels - 2; ++l) {
    if (l >= num_levels()) break;

    // 0. Valid ghosts for the estimator: a level freshly installed by the
    // previous iteration has uninitialized ghost cells.
    fill_ghosts(l, bc);
    Level& cur = level(l);

    // 1. Error flags on level l (each rank flags its own patches).
    FlagField flags(domain_at(l));
    for (const PatchInfo& p : cur.patches())
      if (p.owner == rank()) flag_fn(*this, l, p, flags);
    merge_flags(flags);

    // 2. Buffer, keep existing deeper levels covered, confine to data.
    flags.buffer(cfg_.flag_buffer);
    if (l + 2 < num_levels()) {
      for (const PatchInfo& p : level(l + 2).patches())
        flags.set_box(p.box.coarsened(r * r).grown(1));
    }
    flags.clip_to(cur.boxes());

    // 3. Cluster.
    std::vector<Box> clusters = berger_rigoutsos(flags, cfg_.cluster);

    // 4. Proper nesting: candidate boxes grown by one level-l cell must
    // stay inside the level-l union (so fine ghost prolongation always
    // finds coarse donors), except where they touch the domain boundary.
    // eroded(union) = domain \ dilate(domain \ union).
    std::vector<Box> complement = box_subtract_all(domain_at(l), cur.boxes());
    for (Box& b : complement) b = b.grown(1) & domain_at(l);
    std::vector<Box> nested;
    for (const Box& cand : clusters) {
      auto pieces = box_subtract_all(cand, complement);
      nested.insert(nested.end(), pieces.begin(), pieces.end());
    }

    // 5. Cut for balance (same union, so the same refined cells), then
    // build the new fine level.
    nested = split_for_balance(std::move(nested), nranks(),
                               cfg_.cluster.min_width);
    Level fresh(l + 1, domain_at(l + 1), r);
    for (const Box& b : nested) {
      if (b.empty()) continue;
      fresh.patches().push_back(PatchInfo{next_patch_id_++, b.refined(r), 0});
    }
    balance_owners(fresh.patches(), nranks());
    allocate_local(fresh);

    if (fresh.patches().empty()) {
      // Nothing flagged: drop this and any deeper level.
      levels_.resize(static_cast<std::size_t>(l) + 1);
      break;
    }

    // 6. Fill new patch interiors: prolong from level l, then overwrite
    // with old level l+1 data where it existed (exact values win).
    fill_from_coarse(cur, fresh, /*ghosts_only=*/false);
    if (l + 1 < num_levels()) {
      Level& old = level(l + 1);
      auto src_fn = [&old](int id) -> const PatchData<double>* {
        return old.has_data(id) ? &old.data(id) : nullptr;
      };
      auto dst_fn = [&fresh](int id) -> PatchData<double>* {
        return fresh.has_data(id) ? &fresh.data(id) : nullptr;
      };
      exchange_copy(comm_, old.patches(), src_fn, fresh.patches(), dst_fn,
                    [](const PatchInfo& p) { return p.box; },
                    /*skip_same_id=*/false, next_tag(1));
    }

    // 7. Install.
    if (l + 1 < num_levels())
      levels_[static_cast<std::size_t>(l) + 1] = std::move(fresh);
    else
      levels_.push_back(std::move(fresh));
  }
}

long Hierarchy::total_cells() const {
  long total = 0;
  for (const Level& lvl : levels_) total += lvl.total_cells();
  return total;
}

}  // namespace amr
