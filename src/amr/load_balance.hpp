#pragma once
// Patch-to-rank assignment. The paper's AMRMesh performs "load-balancing
// and domain (re-)decomposition" after regridding, in two steps:
//  * split_for_balance cuts the clustered boxes of a new fine level so no
//    box outweighs a rank's share, then bisects further while that lowers
//    the placement's makespan (Berger-Rigoutsos leaves a few large boxes,
//    often one, and a placement cannot divide a box);
//  * balance_owners places the patches by greedy longest-processing-time
//    (a knapsack-style heuristic), the only placement: heaviest patch
//    (most cells) first, each onto the currently least-loaded rank via a
//    min-heap of rank loads (O(log ranks) per placement), ties to the
//    lowest rank. The result depends only on the boxes and the rank
//    count, so placing a level twice gives the same owners.

#include <vector>

#include "amr/level.hpp"

namespace amr {

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

/// Assigns `owner` for every patch by greedy LPT on cell counts. Returns
/// the load imbalance ratio max_rank_cells / mean_rank_cells (1.0 ==
/// perfect). Patch metadata is replicated, so every rank computes every
/// weight and the identical assignment locally; balancing sends no
/// messages.
double balance_owners(std::vector<PatchInfo>& patches, int nranks);

}  // namespace amr
