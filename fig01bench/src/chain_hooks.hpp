#pragma once
// ChainHooks — the benchmark's mpp::CommHooks, chained in front of
// whatever hook the rank already has installed (the TAU MPI adapter of
// the PMM assembly, or none).
//
// Every callback is forwarded to the previous hook unchanged, so TAU sees
// exactly the calls it would see alone. The forwarded call runs inside its
// own tau.mpi_hook span, which keeps the adapter's cost out of the mpp
// layer it brackets. Sent messages are counted here together with the
// delay the paper's network model would add to each (latency +
// bytes/bandwidth of NetworkModel::classic_cluster(), no jitter, nothing
// slept).

#include <string_view>

#include "ledger.hpp"
#include "mpp/hooks.hpp"
#include "mpp/netmodel.hpp"

namespace fig01bench {

/// The mpp layer an MPI routine belongs to.
inline Layer classify_mpi(std::string_view name) {
  if (name.starts_with("MPI_Wait") || name == "MPI_Recv()") return Layer::mpi_wait;
  for (std::string_view c : {"MPI_Barrier()", "MPI_Bcast()", "MPI_Allreduce()",
                             "MPI_Reduce()", "MPI_Allgather()", "MPI_Gather()",
                             "MPI_Allgatherv()", "MPI_Alltoall()"})
    if (name == c) return Layer::mpi_collective;
  return Layer::mpi_post;
}

class ChainHooks final : public mpp::CommHooks {
 public:
  /// Chains to the hook installed on the calling thread right now; install
  /// this object on the same thread (mpp::HooksInstaller) afterwards.
  ChainHooks() : prev_(mpp::hooks()), stack_(thread_stack()) {}
  ChainHooks(const ChainHooks&) = delete;
  ChainHooks& operator=(const ChainHooks&) = delete;

  void on_begin(const char* mpi_name) override {
    const Layer l = classify_mpi(mpi_name);
    if (l == Layer::mpi_collective &&
        (stack_.depth() == 0 || stack_.top() != Layer::mpi_collective))
      ++stack_.totals().collectives;
    stack_.begin(l, now_ns());
    if (prev_ != nullptr) forward([&] { prev_->on_begin(mpi_name); });
  }

  void on_end(const char* mpi_name, std::size_t bytes) override {
    if (prev_ != nullptr) forward([&] { prev_->on_end(mpi_name, bytes); });
    stack_.end(now_ns());
  }

  void on_message_send(const mpp::MsgEvent& e) override {
    Totals& t = stack_.totals();
    ++t.msgs;
    t.msg_bytes += e.bytes;
    t.modeled_delay_us += kModel.latency_us +
                          static_cast<double>(e.bytes) / kModel.bandwidth_bytes_per_us;
    if (prev_ != nullptr) forward([&] { prev_->on_message_send(e); });
  }

  void on_message_recv(const mpp::MsgEvent& e) override {
    if (prev_ != nullptr) forward([&] { prev_->on_message_recv(e); });
  }

  void on_fault(const mpp::FaultEvent& e) override {
    if (prev_ != nullptr) forward([&] { prev_->on_fault(e); });
  }

  void on_collective_hop(const mpp::HopEvent& e) override {
    if (prev_ != nullptr) forward([&] { prev_->on_collective_hop(e); });
  }

 private:
  static inline const mpp::NetworkModel kModel = mpp::NetworkModel::classic_cluster();

  template <class F>
  void forward(F&& f) {
    stack_.begin(Layer::tau_mpi_hook, now_ns());
    f();
    stack_.end(now_ns());
  }

  mpp::CommHooks* prev_;
  SpanStack& stack_;
};

}  // namespace fig01bench
