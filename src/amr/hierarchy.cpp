#include "amr/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
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
  balance_owners(comm_, lvl.patches(), cfg_.balance);
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

std::map<int, PatchData<double>> Hierarchy::gather_coarse_halos(const Level& coarse,
                                                                const Level& fine) {
  const int r = cfg_.ratio;
  const Box cdom = coarse.domain();

  // Identical synthetic destination set on every rank: one halo patch per
  // fine patch, on coarse index space, owned by the fine patch's owner.
  std::vector<PatchInfo> halos_meta;
  halos_meta.reserve(fine.patches().size());
  for (const PatchInfo& f : fine.patches()) {
    const Box halo = f.box.grown(cfg_.nghost).coarsened(r) & cdom;
    halos_meta.push_back(PatchInfo{f.id, halo, f.owner});
  }

  std::map<int, PatchData<double>> halos;
  for (const PatchInfo& h : halos_meta) {
    if (h.owner != rank() || h.box.empty()) continue;
    halos.emplace(h.id, PatchData<double>(h.box, 0, cfg_.ncomp, 0.0));
  }

  auto src = [&coarse](int id) -> const PatchData<double>* {
    return coarse.has_data(id) ? &coarse.data(id) : nullptr;
  };
  auto dst = [&halos](int id) -> PatchData<double>* {
    auto it = halos.find(id);
    return it == halos.end() ? nullptr : &it->second;
  };
  exchange_copy(comm_, coarse.patches(), src, halos_meta, dst,
                [](const PatchInfo& p) { return p.box; },
                /*skip_same_id=*/false, next_tag(1));
  return halos;
}

void Hierarchy::interpolate_patch(const PatchData<double>& coarse_halo,
                                  PatchData<double>& fine, const Box& target,
                                  int ratio) {
  const Box h = coarse_halo.interior();
  const int ncomp = fine.ncomp();
  for (int c = 0; c < ncomp; ++c) {
    for (int j = target.lo().j; j <= target.hi().j; ++j) {
      const int J = floor_div(j, ratio);
      for (int i = target.lo().i; i <= target.hi().i; ++i) {
        const int I = floor_div(i, ratio);
        if (!h.contains(IntVect{I, J})) continue;  // outside domain: BC later
        const double center = coarse_halo(I, J, c);
        double sx = 0.0, sy = 0.0;
        if (h.contains(IntVect{I - 1, J}) && h.contains(IntVect{I + 1, J}))
          sx = minmod(coarse_halo(I + 1, J, c) - center,
                      center - coarse_halo(I - 1, J, c));
        if (h.contains(IntVect{I, J - 1}) && h.contains(IntVect{I, J + 1}))
          sy = minmod(coarse_halo(I, J + 1, c) - center,
                      center - coarse_halo(I, J - 1, c));
        // Sub-cell offset of the fine cell center within the coarse cell,
        // in coarse-cell units, in [-0.5, 0.5).
        const double fx =
            (static_cast<double>(i - I * ratio) + 0.5) / ratio - 0.5;
        const double fy =
            (static_cast<double>(j - J * ratio) + 0.5) / ratio - 0.5;
        fine(i, j, c) = center + sx * fx + sy * fy;
      }
    }
  }
}

void Hierarchy::prolong(int fine_l, bool ghosts_only) {
  CCAPERF_REQUIRE(fine_l >= 1 && fine_l < num_levels(), "prolong: bad level");
  Level& fine = level(fine_l);
  const Level& coarse = level(fine_l - 1);
  auto halos = gather_coarse_halos(coarse, fine);

  const Box fdom = domain_at(fine_l);
  // Interpolation after the halo gather is patch-local: parallel over the
  // owned fine patches (the communication above stays on the rank thread).
  struct Job {
    const PatchData<double>* halo;
    PatchData<double>* data;
    const PatchInfo* info;
  };
  std::vector<Job> jobs;
  for (const PatchInfo& f : fine.patches()) {
    if (f.owner != rank()) continue;
    auto hit = halos.find(f.id);
    if (hit == halos.end()) continue;
    jobs.push_back(Job{&hit->second, &fine.data(f.id), &f});
  }
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

void Hierarchy::restrict_level(int fine_l) {
  CCAPERF_REQUIRE(fine_l >= 1 && fine_l < num_levels(), "restrict: bad level");
  const Level& fine = level(fine_l);
  Level& coarse = level(fine_l - 1);
  const int r = cfg_.ratio;

  // Synthetic source set: per fine patch, its conservative average on the
  // coarse index space, owned by the fine owner.
  std::vector<PatchInfo> avg_meta;
  avg_meta.reserve(fine.patches().size());
  for (const PatchInfo& f : fine.patches())
    avg_meta.push_back(PatchInfo{f.id, f.box.coarsened(r), f.owner});

  // Conservative averages are patch-local: compute them in parallel into
  // an indexed scratch array, then install into the map in patch order
  // (deterministic, and map mutation stays on the rank thread).
  std::vector<const PatchInfo*> owned;
  for (const PatchInfo& f : fine.patches())
    if (f.owner == rank()) owned.push_back(&f);
  std::vector<std::optional<PatchData<double>>> avgs(owned.size());
  ccaperf::rank_pool().parallel_for(owned.size(), [&](std::size_t k, int) {
    const PatchInfo& f = *owned[k];
    const Box cbox = f.box.coarsened(r);
    PatchData<double> avg(cbox, 0, cfg_.ncomp, 0.0);
    const PatchData<double>& src = fine.data(f.id);
    const double inv = 1.0 / (r * r);
    for (int c = 0; c < cfg_.ncomp; ++c) {
      for (int J = cbox.lo().j; J <= cbox.hi().j; ++J) {
        for (int I = cbox.lo().i; I <= cbox.hi().i; ++I) {
          double sum = 0.0;
          for (int jj = 0; jj < r; ++jj)
            for (int ii = 0; ii < r; ++ii)
              sum += src(I * r + ii, J * r + jj, c);
          avg(I, J, c) = sum * inv;
        }
      }
    }
    avgs[k].emplace(std::move(avg));
  });
  std::map<int, PatchData<double>> averaged;
  for (std::size_t k = 0; k < owned.size(); ++k)
    averaged.emplace(owned[k]->id, std::move(*avgs[k]));

  auto src_fn = [&averaged](int id) -> const PatchData<double>* {
    auto it = averaged.find(id);
    return it == averaged.end() ? nullptr : &it->second;
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
  std::vector<char> merged(bytes.size());
  comm_.allreduce_bytes(bytes.data(), merged.data(), sizeof(char), bytes.size(),
                        [](void* acc, const void* in, std::size_t count) {
                          auto* a = static_cast<char*>(acc);
                          const auto* b = static_cast<const char*>(in);
                          for (std::size_t k = 0; k < count; ++k)
                            a[k] = a[k] || b[k] ? 1 : 0;
                        });
  std::copy(merged.begin(), merged.end(), bytes.begin());
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
    balance_owners(comm_, fresh.patches(), cfg_.balance);
    allocate_local(fresh);

    if (fresh.patches().empty()) {
      // Nothing flagged: drop this and any deeper level.
      levels_.resize(static_cast<std::size_t>(l) + 1);
      break;
    }

    // 6. Fill new patch interiors: prolong from level l, then overwrite
    // with old level l+1 data where it existed (exact values win).
    {
      auto halos = gather_coarse_halos(cur, fresh);
      std::vector<std::pair<const PatchData<double>*, const PatchInfo*>> jobs;
      for (const PatchInfo& f : fresh.patches()) {
        if (f.owner != rank()) continue;
        auto hit = halos.find(f.id);
        if (hit == halos.end()) continue;
        jobs.emplace_back(&hit->second, &f);
      }
      ccaperf::rank_pool().parallel_for(jobs.size(), [&](std::size_t k, int) {
        interpolate_patch(*jobs[k].first, fresh.data(jobs[k].second->id),
                          jobs[k].second->box, r);
      });
    }
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

double Hierarchy::rebalance() {
  double worst = 1.0;
  for (Level& lvl : levels_) {
    std::vector<PatchInfo> rebal = lvl.patches();
    const double imbalance = balance_owners(comm_, rebal, cfg_.balance);
    worst = std::max(worst, imbalance);

    Level fresh(lvl.index(), lvl.domain(), lvl.ratio_to_coarser());
    fresh.patches() = rebal;
    allocate_local(fresh);

    auto src_fn = [&lvl](int id) -> const PatchData<double>* {
      return lvl.has_data(id) ? &lvl.data(id) : nullptr;
    };
    auto dst_fn = [&fresh](int id) -> PatchData<double>* {
      return fresh.has_data(id) ? &fresh.data(id) : nullptr;
    };
    exchange_copy(comm_, lvl.patches(), src_fn, fresh.patches(), dst_fn,
                  [](const PatchInfo& p) { return p.box; },
                  /*skip_same_id=*/false, next_tag(1));
    lvl = std::move(fresh);
  }
  return worst;
}

long Hierarchy::total_cells() const {
  long total = 0;
  for (const Level& lvl : levels_) total += lvl.total_cells();
  return total;
}

}  // namespace amr
