// RK2's patch job list (components::patch_jobs): ascending id order at one
// lane, so a serial run keeps its exact call order; at more lanes the
// largest patch first, with equal sizes left in id order.

#include <gtest/gtest.h>

#include <vector>

#include "components/rk2_component.hpp"

namespace {

/// A level of 40 one-component patches whose sizes repeat out of id order
/// (64, 16 or 32 cells), enough of them that an unstable sort reorders
/// some ties.
amr::Level mixed_level() {
  amr::Level lvl(0, amr::Box{0, 0, 1023, 7}, 1);
  const int widths[] = {8, 2, 4};
  int x = 0;
  for (int id = 0; id < 40; ++id) {
    const int w = widths[(id * 7 + id / 5) % 3];
    const amr::Box box{x, 0, x + w - 1, 7};
    x += w;
    lvl.patches().push_back(amr::PatchInfo{id, box, 0});
    lvl.local_data().emplace(id, amr::PatchData<double>(box, 0, 1));
  }
  return lvl;
}

TEST(PatchJobs, OneLaneKeepsAscendingIdOrder) {
  amr::Level lvl = mixed_level();
  const components::PatchJobs jobs = components::patch_jobs(lvl, 1);
  ASSERT_EQ(jobs.size(), 40u);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(jobs[k].first, static_cast<int>(k));
    EXPECT_EQ(jobs[k].second, &lvl.data(jobs[k].first));
  }
}

TEST(PatchJobs, LanesTakeTheLargestPatchFirstAndTiesInIdOrder) {
  amr::Level lvl = mixed_level();
  for (int lanes : {2, 3}) {
    const components::PatchJobs jobs = components::patch_jobs(lvl, lanes);
    ASSERT_EQ(jobs.size(), 40u);
    std::vector<int> seen(40, 0);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      EXPECT_EQ(jobs[k].second, &lvl.data(jobs[k].first));
      ++seen[static_cast<std::size_t>(jobs[k].first)];
      if (k == 0) continue;
      const long prev = lvl.patch(jobs[k - 1].first).box.num_pts();
      const long cur = lvl.patch(jobs[k].first).box.num_pts();
      EXPECT_GE(prev, cur) << lanes << " lanes, job " << k;
      if (prev == cur) {
        EXPECT_LT(jobs[k - 1].first, jobs[k].first)
            << lanes << " lanes, job " << k;
      }
    }
    EXPECT_EQ(seen, std::vector<int>(40, 1)) << lanes << " lanes";
    EXPECT_EQ(lvl.patch(jobs.front().first).box.num_pts(), 64);
    EXPECT_EQ(lvl.patch(jobs.back().first).box.num_pts(), 16);
  }
}

}  // namespace
