#pragma once
// GridHierarchy: the Berger-Collela SAMR engine behind the paper's AMRMesh
// component.
//
// "The method consists of laying a relatively coarse Cartesian mesh over a
// rectangular domain. Based on some suitable metric, regions requiring
// further refinement are identified, the grid points flagged and collated
// into rectangular children patches on which a denser Cartesian mesh is
// imposed. ... one ultimately obtains a hierarchy of patches with
// different grid densities" (paper §5).
//
// Responsibilities:
//  * level-0 domain decomposition and load balancing (greedy LPT,
//    balance_owners; level 0 keeps this placement for the whole run);
//  * ghost-cell updates (same-level exchange + coarse->fine prolongation +
//    physical BC) — the paper's "ghost-cell updates on patches (gets data
//    from abutting, but off-processor patches onto a patch)";
//  * conservative fine->coarse restriction;
//  * regridding: error flagging (caller-supplied estimator) -> flag
//    buffering -> Berger-Rigoutsos clustering -> proper-nesting clip ->
//    cutting boxes for balance (split_for_balance: the union, and so the
//    refined region, is unchanged) -> load balancing (balance_owners on
//    each new level, its one placement) -> data migration from the old
//    hierarchy;
//  * a monotone message-tag allocator so concurrent exchange plans never
//    collide.
//
// SCMD: one Hierarchy per rank; all metadata operations are replicated
// deterministic computations, all data motion goes through exchange_copy.

#include <functional>

#include "amr/bc.hpp"
#include "amr/berger_rigoutsos.hpp"
#include "amr/exchange.hpp"
#include "amr/level.hpp"
#include "amr/load_balance.hpp"
#include "mpp/comm.hpp"

namespace amr {

/// Physical (real-space) geometry of level 0.
struct Geometry {
  double x0 = 0.0;
  double y0 = 0.0;
  double dx0 = 1.0;  ///< level-0 cell width
  double dy0 = 1.0;  ///< level-0 cell height
};

struct HierarchyConfig {
  Box domain;                  ///< level-0 index space
  int max_levels = 3;
  int ratio = 2;               ///< refinement ratio between adjacent levels
  int nghost = 2;
  int ncomp = 1;
  int level0_patch_size = 32;  ///< target tile edge for the base decomposition
  ClusterParams cluster{0.80, 8, 96};
  int flag_buffer = 2;         ///< dilation of error flags before clustering
  Geometry geom;
};

class Hierarchy {
 public:
  /// Duplicates `world` so hierarchy traffic cannot collide with
  /// application messages.
  Hierarchy(mpp::Comm& world, HierarchyConfig cfg);

  const HierarchyConfig& config() const { return cfg_; }
  mpp::Comm& comm() { return comm_; }
  int rank() const { return comm_.rank(); }
  int nranks() const { return comm_.size(); }

  int num_levels() const { return static_cast<int>(levels_.size()); }
  Level& level(int l);
  const Level& level(int l) const;

  /// Cell sizes at level `l`.
  double dx(int l) const;
  double dy(int l) const;
  /// Cell-center coordinates of cell (i, j) at level `l`.
  double xc(int l, int i) const { return cfg_.geom.x0 + (i + 0.5) * dx(l); }
  double yc(int l, int j) const { return cfg_.geom.y0 + (j + 0.5) * dy(l); }
  /// Domain box in level-l index space.
  Box domain_at(int l) const;

  /// Tiles the domain into level-0 patches, balances, allocates local data
  /// (zero-filled). Must be called once before anything else.
  void init_level0();

  /// Ghost-cell update for level `l`: prolong from l-1 (if any), exchange
  /// with same-level neighbors, then apply physical BCs. Returns the
  /// same-level exchange stats (the measured communication).
  ExchangeStats fill_ghosts(int l, const BcSpec& bc);

  /// Same-level ghost exchange + physical BC only (no prolongation); the
  /// AMRMesh component exposes prolong and exchange as separate timed
  /// methods, mirroring the paper's icc_proxy::prolong()/ghost updates.
  ExchangeStats exchange_and_bc(int l, const BcSpec& bc);

  /// Coarse->fine fill. `ghosts_only`: fill only ghost cells (normal
  /// stepping); otherwise fill interiors too (new patches after regrid).
  void prolong(int fine_l, bool ghosts_only);

  /// Conservative average of level `fine_l` onto level `fine_l - 1`.
  void restrict_level(int fine_l);

  /// Error estimator: sets flags (in level-l index space) for one local
  /// patch. Flags outside the patch box are ignored.
  using FlagFn =
      std::function<void(const Hierarchy&, int l, const PatchInfo&, FlagField&)>;

  /// Rebuilds levels 1..max_levels-1 from the estimator: flag ->
  /// buffer -> cluster -> nest -> split -> balance -> migrate. Collective.
  /// `bc` is applied when refilling each level's ghosts before it is
  /// flagged — estimators may read one ghost layer (newly created
  /// intermediate levels would otherwise expose uninitialized ghosts to
  /// the flagger, producing spurious refinement along patch seams).
  /// Interiors of the rebuilt levels are valid on return; their ghosts are
  /// not until the next prolong + exchange_and_bc (or fill_ghosts).
  void regrid(const FlagFn& flag_fn, const BcSpec& bc = BcSpec{});

  long total_cells() const;

  /// Reserves `count` message tags (collective consistency by replication).
  int next_tag(int count);

 private:
  void allocate_local(Level& lvl);
  /// Gathers coarse donor data under the (grown) footprint of each fine
  /// patch into per-patch halo buffers, indexed by position in
  /// fine.patches(); only this rank's patches with a non-empty footprint
  /// get a (non-empty) buffer.
  std::vector<PatchData<double>> gather_coarse_halos(const Level& coarse,
                                                     const Level& fine);
  /// Coarse->fine fill of `fine` from `coarse`: ghost cells only, or
  /// interiors too. `fine` need not be installed yet (regrid fills a new
  /// level before it replaces the old one).
  void fill_from_coarse(const Level& coarse, Level& fine, bool ghosts_only);
  static void interpolate_patch(const PatchData<double>& coarse_halo,
                                PatchData<double>& fine, const Box& target,
                                int ratio);
  /// Combines per-rank flags into a globally consistent field.
  void merge_flags(FlagField& flags);

  mpp::Comm comm_;
  HierarchyConfig cfg_;
  std::vector<Level> levels_;
  int next_patch_id_ = 0;
  int tag_counter_ = 0;
};

}  // namespace amr
