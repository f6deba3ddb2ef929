#pragma once
// Patch-to-rank assignment. The paper's AMRMesh performs "load-balancing
// and domain (re-)decomposition" after regridding, in two steps:
//  * split_for_balance cuts the clustered boxes of a new fine level so no
//    box outweighs a rank's share, then bisects further while that lowers
//    the placement's makespan (Berger-Rigoutsos leaves a few large boxes,
//    often one, and a placement cannot divide a box);
//  * balance_owners places the patches. The default policy is greedy
//    longest-processing-time (a knapsack-style heuristic): heaviest patch
//    (most cells) first, each onto the currently least-loaded rank via a
//    min-heap of rank loads (O(log ranks) per placement), ties to the
//    lowest rank.
// A round-robin policy is kept for the load-balance ablation bench.

#include <vector>

#include "amr/level.hpp"
#include "mpp/comm.hpp"

namespace amr {

enum class BalancePolicy {
  knapsack,     ///< greedy LPT on cell counts (default)
  round_robin,  ///< ignore weights; cycle ranks in patch order
};

/// Cuts `boxes` for balance on `nranks` ranks; the returned pieces are
/// disjoint and cover exactly the cells of `boxes`. First every box with
/// more than ceil(cells / nranks) cells is cut into equal slabs across its
/// longer side, then the largest box is bisected the same way while that
/// strictly lowers lpt_makespan. No cut leaves a piece narrower than
/// `min_width` across the cut. Deterministic (replicated metadata only),
/// never raises lpt_makespan, and the identity at one rank. Hierarchy
/// calls it on the coarse-index boxes of a new level, so every piece stays
/// aligned to the refinement ratio.
std::vector<Box> split_for_balance(std::vector<Box> boxes, int nranks,
                                   int min_width);

/// Heaviest rank's cell count when `boxes` are placed by greedy LPT.
long lpt_makespan(const std::vector<Box>& boxes, int nranks);

/// Assigns `owner` for every patch. Returns the load imbalance ratio
/// max_rank_cells / mean_rank_cells (1.0 == perfect). Every rank computes
/// every patch weight locally (replicated-metadata path).
double balance_owners(std::vector<PatchInfo>& patches, int nranks,
                      BalancePolicy policy = BalancePolicy::knapsack);

/// Group sizes below this use the replicated path: recomputing a handful
/// of weights locally is cheaper than any communication, and it keeps the
/// paper-scale (2-3 rank) comm traces byte-identical.
inline constexpr int kDistributedBalanceThreshold = 16;

/// Communicator-aware variant used by Hierarchy (collective). At
/// kDistributedBalanceThreshold ranks and above, per-patch weights are
/// computed in contiguous index shards — one per rank — and shared with a
/// tree allgatherv, and the imbalance summary comes from a reduction of
/// per-rank load summaries, so no rank recomputes the whole patch list.
/// The assignment itself is deterministic and identical on every rank.
double balance_owners(mpp::Comm& comm, std::vector<PatchInfo>& patches,
                      BalancePolicy policy = BalancePolicy::knapsack);

}  // namespace amr
