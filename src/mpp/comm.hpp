#pragma once
// mpp::Comm — the communicator API of the in-process message-passing
// runtime. It mirrors the MPI-1 subset the paper's application uses
// (CCAFFEINE "adheres to the MPI-1 standard"): nonblocking point-to-point
// with Waitsome/Waitall, barrier, allreduce and Comm_dup.
//
// Typed operations are thin templates over a byte-level core; payload types
// must be trivially copyable. All entry points are bracketed with
// PMPI-style hooks (see hooks.hpp) so the TAU adapter can time them under
// the "MPI" group exactly as the paper's measurement system does.

#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "mpp/fabric.hpp"
#include "mpp/hooks.hpp"
#include "support/error.hpp"

namespace mpp {

/// Handle to a nonblocking operation. Move-only: exactly one live handle
/// per operation, so dropping a pending receive cancels it deterministically.
/// Completion consumes the handle (MPI-style request deallocation).
class Request {
 public:
  Request() = default;

  /// True if this handle refers to an operation (complete or not).
  bool valid() const { return static_cast<bool>(state_); }

  /// Non-consuming completion check.
  bool done() const { return state_ && state_->ready(); }

  /// Blocks until completion; returns the Status and invalidates the
  /// handle. Hook name: "MPI_Wait()".
  Status wait();

  /// If complete, returns the Status and invalidates the handle.
  std::optional<Status> test();

  ~Request() { release(); }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  Request(Request&&) noexcept = default;
  Request& operator=(Request&& o) noexcept {
    if (this != &o) {
      release();
      state_ = std::move(o.state_);
    }
    return *this;
  }

 private:
  friend class Comm;
  friend std::size_t wait_some(std::span<Request>, std::vector<int>&, std::vector<Status>*);
  friend void wait_all(std::span<Request>);

  explicit Request(std::shared_ptr<detail::ReqState> st) : state_(std::move(st)) {}

  /// The one blocking wait loop behind wait, wait_all and wait_some:
  /// blocks until at least one valid request of `reqs` (there must be
  /// one) completes, hands each completed (index, Status) to `on_done` and
  /// invalidates its handle. `what` names the caller in errors.
  template <class OnDone>
  static void wait_any(std::span<Request> reqs, const char* what, OnDone&& on_done);
  /// Cancels a still-posted receive when the last handle is dropped.
  void release();

  std::shared_ptr<detail::ReqState> state_;
};

/// MPI_Waitsome: blocks until at least one *valid* request in `reqs`
/// completes; completed requests are invalidated and their indices appended
/// to `indices` (cleared first). Returns the number completed; returns 0
/// immediately iff no request is valid. Hook name: "MPI_Waitsome()".
std::size_t wait_some(std::span<Request> reqs, std::vector<int>& indices,
                      std::vector<Status>* statuses = nullptr);

/// MPI_Waitall over the valid requests. Hook name: "MPI_Waitall()".
void wait_all(std::span<Request> reqs);

/// Reduction functors for typed allreduce.
template <class T>
struct SumOp {
  T operator()(const T& a, const T& b) const { return a + b; }
};
template <class T>
struct MinOp {
  T operator()(const T& a, const T& b) const { return b < a ? b : a; }
};
template <class T>
struct MaxOp {
  T operator()(const T& a, const T& b) const { return a < b ? b : a; }
};

/// Communicator: every rank of the world plus a matching context (the
/// world's, or a fresh one from dup). Lightweight value type (copy = alias).
class Comm {
 public:
  Comm() = default;  ///< invalid communicator

  bool valid() const { return fabric_ != nullptr; }
  int rank() const { return rank_; }
  int size() const { return fabric_->world_size(); }

  /// High-resolution wall clock, seconds since runtime start ("MPI_Wtime()").
  double wtime() const;

  /// Introspection for tests/benches (not part of the MPI surface):
  /// payload buffer-pool statistics of the underlying fabric.
  detail::BufferPool::Stats pool_stats() const { return fabric_->pool().stats(); }

  /// Fault/recovery accounting of the underlying fabric (see fault.hpp).
  FaultStats fault_stats() const { return fabric_->fault_stats(); }

  /// Records one stale-ghost degradation (amr::exchange gave up waiting and
  /// reused old ghost data): counted on the fabric and reported to this
  /// rank's hooks with the number of ghost segments left stale.
  void report_stale_fallback(std::size_t segments);

  /// MPI_Comm_dup: same ranks, fresh matching context (collective).
  Comm dup() const;

  // --- point to point (byte level) ---------------------------------------
  Request isend_bytes(const void* data, std::size_t bytes, int dest, int tag);
  Request irecv_bytes(void* buffer, std::size_t capacity, int src, int tag);

  // --- point to point (typed) --------------------------------------------
  template <class T>
  Request isend(std::span<const T> data, int dest, int tag) {
    check_pod<T>();
    return isend_bytes(data.data(), data.size_bytes(), dest, tag);
  }
  template <class T>
  Request irecv(std::span<T> buffer, int src, int tag) {
    check_pod<T>();
    return irecv_bytes(buffer.data(), buffer.size_bytes(), src, tag);
  }

  // --- collectives ---------------------------------------------------------
  void barrier();

  /// Element-wise combine function over type-erased arrays.
  using CombineFn = void (*)(void* acc, const void* in, std::size_t count);

  /// Combines `count` elements of `elem_bytes` from every rank into `out`
  /// on every rank. `in` may equal `out` (in-place reduction).
  void allreduce_bytes(const void* in, void* out, std::size_t elem_bytes,
                       std::size_t count, CombineFn combine);

  template <class T, class Op = SumOp<T>>
  void allreduce(std::span<const T> in, std::span<T> out) {
    check_pod<T>();
    CCAPERF_REQUIRE(in.size() == out.size(), "allreduce: size mismatch");
    allreduce_bytes(in.data(), out.data(), sizeof(T), in.size(), &combine_fn<T, Op>);
  }
  /// Convenience scalar allreduce.
  template <class Op = SumOp<double>, class T = double>
  T allreduce_value(T v) {
    check_pod<T>();
    T out{};
    allreduce_bytes(&v, &out, sizeof(T), 1, &combine_fn<T, Op>);
    return out;
  }

 private:
  friend class Runtime;

  Comm(Fabric* fabric, std::uint64_t context, int rank)
      : fabric_(fabric), context_(context), rank_(rank),
        hop_slots_(fabric->hop_slots(context)) {}

  template <class T>
  static void check_pod() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "mpp payloads must be trivially copyable");
  }

  template <class T, class Op>
  static void combine_fn(void* acc, const void* in, std::size_t count) {
    static_assert(std::is_empty_v<Op>, "reduction ops must be stateless");
    T* a = static_cast<T*>(acc);
    const T* b = static_cast<const T*>(in);
    Op op{};
    for (std::size_t i = 0; i < count; ++i) a[i] = op(a[i], b[i]);
  }

  // Every collective runs over the per-(context, rank) HopSlot relays
  // (DESIGN.md §10). A call's hops are keyed by (generation, round): the
  // generation is bumped once per public call on every rank, and the round
  // is unique per receiver within the call.

  detail::HopSlot& hop_slot(int rank) const {
    return *hop_slots_[static_cast<std::size_t>(rank)];
  }
  /// This rank's next collective generation on this context.
  std::uint64_t next_generation() const;
  /// One hop: deposits `bytes` into `dest`'s HopSlot under (gen, round)
  /// and reports it to on_collective_hop. Never blocks (early arrivals
  /// buffer in the slot).
  void hop_send(int dest, std::uint64_t gen, int round, const void* data,
                std::size_t bytes, const char* op) const;
  /// Blocks until this rank's HopSlot holds (gen, round), copies the
  /// payload (which must be exactly `bytes`) to `out` and returns its slab
  /// to the pool. Throws CommErrc::aborted if the fabric dies while waiting.
  void hop_recv(std::uint64_t gen, int round, void* out, std::size_t bytes,
                const char* op) const;

  /// Binomial-tree broadcast of `data` from rank 0; every hop uses `round`.
  void tree_bcast(std::uint64_t gen, int round, void* data, std::size_t bytes,
                  const char* op) const;
  /// Binomial-tree reduction of `acc` (count elements, `bytes` in all) to
  /// rank 0, in place; hop rounds are the tree levels 0..ceil(log2 n)-1.
  /// Each rank combines acc = acc (+) child in level order, so the result
  /// does not depend on arrival order.
  void tree_reduce(std::uint64_t gen, void* acc, std::size_t bytes,
                   std::size_t count, CombineFn combine, const char* op) const;

  Fabric* fabric_ = nullptr;
  std::uint64_t context_ = 0;
  int rank_ = -1;
  const std::unique_ptr<detail::HopSlot>* hop_slots_ = nullptr;  ///< by rank
};

}  // namespace mpp
