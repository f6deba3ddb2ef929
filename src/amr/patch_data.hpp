#pragma once
// PatchData<T>: multi-component cell data on one patch, with ghost cells.
//
// Storage covers grown(interior, nghost), component-major, row-major per
// component (j outer, i inner) — so a +1 step in `i` is unit stride while
// a +1 step in `j` strides by the padded row length. That layout is what
// makes the paper's two access modes (sequential X-sweeps vs strided
// Y-sweeps in States/EFMFlux/GodunovFlux) physically meaningful.

#include <cstring>
#include <span>
#include <vector>

#include "amr/box.hpp"
#include "support/error.hpp"

namespace amr {

template <class T>
class PatchData {
 public:
  PatchData() = default;

  PatchData(const Box& interior, int nghost, int ncomp, T init = T{})
      : interior_(interior), grown_(interior.grown(nghost)), nghost_(nghost),
        ncomp_(ncomp) {
    CCAPERF_REQUIRE(!interior.empty(), "PatchData: empty interior box");
    CCAPERF_REQUIRE(nghost >= 0 && ncomp >= 1, "PatchData: bad nghost/ncomp");
    data_.assign(static_cast<std::size_t>(grown_.num_pts()) *
                     static_cast<std::size_t>(ncomp_),
                 init);
  }

  /// Gives the patch a new shape without clearing it: cells that were
  /// already allocated keep their old values, so callers must write every
  /// cell before reading it. Capacity only grows, so reused scratch stops
  /// allocating once it has held the largest patch.
  void reshape(const Box& interior, int nghost, int ncomp) {
    CCAPERF_REQUIRE(!interior.empty(), "PatchData: empty interior box");
    CCAPERF_REQUIRE(nghost >= 0 && ncomp >= 1, "PatchData: bad nghost/ncomp");
    interior_ = interior;
    grown_ = interior.grown(nghost);
    nghost_ = nghost;
    ncomp_ = ncomp;
    data_.resize(static_cast<std::size_t>(grown_.num_pts()) *
                 static_cast<std::size_t>(ncomp_));
  }

  const Box& interior() const { return interior_; }
  const Box& grown_box() const { return grown_; }
  int nghost() const { return nghost_; }
  int ncomp() const { return ncomp_; }
  bool empty() const { return data_.empty(); }

  /// Cells per component (including ghosts).
  std::size_t pts_per_comp() const { return static_cast<std::size_t>(grown_.num_pts()); }
  /// Unit-stride row length (including ghosts).
  int row_stride() const { return grown_.width(); }

  /// Flat offset of cell (i, j) within one component's plane.
  std::size_t offset(int i, int j) const {
    return static_cast<std::size_t>(j - grown_.lo().j) *
               static_cast<std::size_t>(grown_.width()) +
           static_cast<std::size_t>(i - grown_.lo().i);
  }

  T& at(int i, int j, int c) {
    check(i, j, c);
    return data_[plane(c) + offset(i, j)];
  }
  const T& at(int i, int j, int c) const {
    check(i, j, c);
    return data_[plane(c) + offset(i, j)];
  }
  /// Unchecked access for kernels.
  T& operator()(int i, int j, int c) { return data_[plane(c) + offset(i, j)]; }
  const T& operator()(int i, int j, int c) const {
    return data_[plane(c) + offset(i, j)];
  }

  /// Whole-component plane (including ghosts) as a flat span.
  std::span<T> comp(int c) {
    check_comp(c);
    return {data_.data() + plane(c), pts_per_comp()};
  }
  std::span<const T> comp(int c) const {
    check_comp(c);
    return {data_.data() + plane(c), pts_per_comp()};
  }

  std::span<T> raw() { return data_; }
  std::span<const T> raw() const { return data_; }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Copies `box` (same index space) for all components from `src`. `box`
  /// must lie within both grown boxes.
  void copy_from(const PatchData& src, const Box& box) {
    if (box.empty()) return;
    CCAPERF_REQUIRE(src.ncomp_ == ncomp_, "copy_from: component count mismatch");
    CCAPERF_REQUIRE(grown_.contains(box) && src.grown_.contains(box),
                    "copy_from: box not contained in both patches");
    const std::size_t row_bytes = static_cast<std::size_t>(box.width()) * sizeof(T);
    for (int c = 0; c < ncomp_; ++c) {
      for (int j = box.lo().j; j <= box.hi().j; ++j) {
        std::memcpy(&(*this)(box.lo().i, j, c), &src(box.lo().i, j, c), row_bytes);
      }
    }
  }

  /// Serializes `box` x all components into `out` (row-major per comp).
  void pack(const Box& box, std::vector<T>& out) const {
    out.clear();
    pack_append(box, out);
  }

  /// Like pack, but appends to `out` — lets callers coalesce several
  /// regions into one message buffer without intermediate copies.
  void pack_append(const Box& box, std::vector<T>& out) const {
    CCAPERF_REQUIRE(grown_.contains(box), "pack: box outside patch");
    std::size_t k = out.size();
    out.resize(k + static_cast<std::size_t>(box.num_pts()) *
                       static_cast<std::size_t>(ncomp_));
    for (int c = 0; c < ncomp_; ++c)
      for (int j = box.lo().j; j <= box.hi().j; ++j) {
        std::memcpy(&out[k], &(*this)(box.lo().i, j, c),
                    static_cast<std::size_t>(box.width()) * sizeof(T));
        k += static_cast<std::size_t>(box.width());
      }
  }

  /// Inverse of pack.
  void unpack(const Box& box, std::span<const T> in) {
    CCAPERF_REQUIRE(grown_.contains(box), "unpack: box outside patch");
    CCAPERF_REQUIRE(in.size() == static_cast<std::size_t>(box.num_pts()) *
                                     static_cast<std::size_t>(ncomp_),
                    "unpack: size mismatch");
    std::size_t k = 0;
    for (int c = 0; c < ncomp_; ++c)
      for (int j = box.lo().j; j <= box.hi().j; ++j) {
        std::memcpy(&(*this)(box.lo().i, j, c), &in[k],
                    static_cast<std::size_t>(box.width()) * sizeof(T));
        k += static_cast<std::size_t>(box.width());
      }
  }

 private:
  std::size_t plane(int c) const {
    return static_cast<std::size_t>(c) * pts_per_comp();
  }
  void check(int i, int j, int c) const {
    CCAPERF_REQUIRE(grown_.contains(IntVect{i, j}),
                    "PatchData: index outside grown box");
    check_comp(c);
  }
  void check_comp(int c) const {
    CCAPERF_REQUIRE(c >= 0 && c < ncomp_, "PatchData: bad component");
  }

  Box interior_;
  Box grown_;
  int nghost_ = 0;
  int ncomp_ = 0;
  std::vector<T> data_;
};

}  // namespace amr
