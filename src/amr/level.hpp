#pragma once
// Level: one refinement level of the SAMR hierarchy.
//
// SCMD invariant (paper §3.1): the *metadata* — every patch's box and
// owner — is identical on all ranks; only the patch *data* of locally
// owned patches is stored. All communication plans are computed
// redundantly from the shared metadata, so no negotiation messages are
// needed before an exchange.

#include <map>
#include <vector>

#include "amr/box.hpp"
#include "amr/patch_data.hpp"

namespace amr {

struct PatchInfo {
  int id = -1;     ///< unique within the level
  Box box;         ///< interior cells, level index space
  int owner = 0;   ///< owning rank in the mesh communicator
};

class Level {
 public:
  Level() = default;
  /// `domain` is the full problem domain in this level's index space;
  /// `ratio` is the refinement ratio to the next coarser level (1 for
  /// level 0).
  Level(int index, Box domain, int ratio) : index_(index), domain_(domain), ratio_(ratio) {}

  int index() const { return index_; }
  const Box& domain() const { return domain_; }
  int ratio_to_coarser() const { return ratio_; }

  const std::vector<PatchInfo>& patches() const { return patches_; }
  std::vector<PatchInfo>& patches() { return patches_; }

  const PatchInfo& patch(int id) const {
    for (const PatchInfo& p : patches_)
      if (p.id == id) return p;
    ccaperf::raise("Level: unknown patch id " + std::to_string(id));
  }

  /// Data of a locally owned patch.
  PatchData<double>& data(int id) {
    auto it = local_.find(id);
    CCAPERF_REQUIRE(it != local_.end(),
                    "Level: patch " + std::to_string(id) + " is not local");
    return it->second;
  }
  const PatchData<double>& data(int id) const {
    auto it = local_.find(id);
    CCAPERF_REQUIRE(it != local_.end(),
                    "Level: patch " + std::to_string(id) + " is not local");
    return it->second;
  }
  bool has_data(int id) const { return local_.count(id) != 0; }
  std::map<int, PatchData<double>>& local_data() { return local_; }
  const std::map<int, PatchData<double>>& local_data() const { return local_; }

  std::vector<Box> boxes() const {
    std::vector<Box> bs;
    bs.reserve(patches_.size());
    for (const PatchInfo& p : patches_) bs.push_back(p.box);
    return bs;
  }

  long total_cells() const {
    long t = 0;
    for (const PatchInfo& p : patches_) t += p.box.num_pts();
    return t;
  }

 private:
  int index_ = 0;
  Box domain_;
  int ratio_ = 1;
  std::vector<PatchInfo> patches_;
  std::map<int, PatchData<double>> local_;
};

}  // namespace amr
