#include "mpp/comm.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>

namespace mpp {

namespace {

void sleep_us(double us) {
  if (us > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

/// Fires the receive-side message hook for a completed receive. Called at
/// the completion sites (wait/test/waitsome), inside their hook brackets,
/// so trace events land within the enclosing MPI slice.
void emit_recv_event(const detail::ReqState& st) {
  if (st.kind != detail::ReqState::Kind::recv || st.src_world < 0) return;
  if (CommHooks* h = hooks())
    h->on_message_recv(MsgEvent{st.src_world, st.dst_world, st.status.tag,
                                st.status.bytes, st.seq});
}

/// Fires the send-side message hook once a send has been handed to the
/// fabric (identity fields stamped by Fabric::send).
void emit_send_event(const detail::ReqState& st) {
  if (st.src_world < 0) return;
  if (CommHooks* h = hooks())
    h->on_message_send(MsgEvent{st.src_world, st.dst_world, st.status.tag,
                                st.status.bytes, st.seq});
}

bool any_valid(std::span<const Request> reqs) {
  return std::any_of(reqs.begin(), reqs.end(),
                     [](const Request& r) { return r.valid(); });
}

[[noreturn]] void raise_failed(const detail::ReqState& st, const char* what) {
  const auto code = static_cast<CommErrc>(
      st.failed.load(std::memory_order_acquire) - 1);
  throw CommError(code, std::string("mpp: ") + what +
                            ": send failed (retransmission attempts exhausted)");
}

/// Book-keeping for one blocking wait: drives the fault layer each quantum
/// and enforces the configured timeout plus the always-on no-progress bound
/// so a wait for a message that never arrives fails instead of hanging.
class WaitBudget {
 public:
  explicit WaitBudget(Fabric* fab) : fab_(fab) {
    if (fab_ != nullptr) last_activity_ = fab_->activity();
  }

  /// How long to block on the condition variable before polling again.
  Clock::duration quantum() const {
    using std::chrono::duration_cast;
    if (fab_ != nullptr && fab_->faults_active())
      return duration_cast<Clock::duration>(std::chrono::microseconds(200));
    return duration_cast<Clock::duration>(std::chrono::milliseconds(10));
  }

  /// One poll: advance the fault layer, then check the two bounds. Must be
  /// called with no signal/mailbox lock held (fault_poll takes both).
  void poll_and_check(const char* what) {
    if (fab_ == nullptr) return;
    fab_->fault_poll();
    check(what);
  }

  /// The two bounds alone, without advancing the fault layer: collective
  /// hops are not faulted, and a rank parked in a collective must not
  /// release or retry another rank's faulted messages (that would make
  /// the fault schedule depend on timing).
  void check(const char* what) {
    if (fab_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    const double timeout_us = fab_->wait_timeout_us();
    if (timeout_us > 0.0 &&
        std::chrono::duration<double, std::micro>(now - start_).count() >
            timeout_us)
      expire(CommErrc::timeout, std::string("mpp: ") + what +
                                    ": timed out after " +
                                    std::to_string(timeout_us) + " us");
    const std::uint64_t activity = fab_->activity();
    if (activity != last_activity_) {
      last_activity_ = activity;
      activity_at_ = now;
      return;
    }
    const double idle_us = fab_->idle_limit_us();
    if (idle_us > 0.0 &&
        std::chrono::duration<double, std::micro>(now - activity_at_).count() >
            idle_us)
      expire(CommErrc::no_progress, std::string("mpp: ") + what +
                                        ": no fabric progress for " +
                                        std::to_string(idle_us) + " us");
  }

 private:
  /// Counts the expired wait, reports it to this rank's hooks and throws.
  [[noreturn]] void expire(CommErrc code, const std::string& why) {
    fab_->count_timeout();
    if (CommHooks* h = hooks())
      h->on_fault(FaultEvent{FaultEvent::Type::timeout, FaultKind::none, -1,
                             -1, 0, 0});
    throw CommError(code, why);
  }

  Fabric* fab_;
  Clock::time_point start_ = Clock::now();
  Clock::time_point activity_at_ = start_;
  std::uint64_t last_activity_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

template <class OnDone>
void Request::wait_any(std::span<Request> reqs, const char* what,
                       OnDone&& on_done) {
  // Classifies every request against a SINGLE time sample: requests whose
  // modeled delivery time has passed complete; matched-but-undelivered
  // ones bound the sleep. Using one `now` for both decisions is essential:
  // with two samples a request can fall between "not ready yet" and "no
  // longer pending", leaving the thread in an unbounded wait that no
  // future notification ends.
  Clock::time_point nearest;
  auto harvest = [&]() -> bool {
    bool any = false;
    nearest = Clock::time_point::max();
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      auto& st = reqs[i].state_;
      if (!st || !st->matched.load(std::memory_order_acquire)) continue;
      if (st->deliver_at <= now) {
        on_done(i, st->status);
        emit_recv_event(*st);
        st.reset();
        any = true;
      } else {
        nearest = std::min(nearest, st->deliver_at);
      }
    }
    return any;
  };

  // Sends (and already-arrived receives) complete immediately.
  if (harvest()) return;

  detail::RankSignal* signal = nullptr;
  Fabric* fab = nullptr;
  for (const Request& r : reqs) {
    if (!r.state_) continue;
    if (r.state_->signal != nullptr) signal = r.state_->signal;
    if (fab == nullptr) fab = r.state_->fabric;
  }
  CCAPERF_REQUIRE(signal != nullptr,
                  std::string(what) + ": request without owner signal");
  // Bounded quanta instead of an open-ended block: each expiry drives the
  // fault layer and checks the timeout / no-progress bounds, so a message
  // that never arrives surfaces a CommError instead of hanging.
  WaitBudget budget(fab);
  for (;;) {
    {
      std::unique_lock lock(signal->mu);
      if (harvest()) return;
      for (const Request& r : reqs) {
        if (!r.state_) continue;
        if (r.state_->failed.load(std::memory_order_acquire) != 0)
          raise_failed(*r.state_, what);
        if (r.state_->aborted())
          throw CommError(CommErrc::aborted, std::string("mpp: ") + what +
                                                 " aborted (a peer rank failed)");
      }
      Clock::time_point until = Clock::now() + budget.quantum();
      if (nearest != Clock::time_point::max()) until = std::min(until, nearest);
      signal->cv.wait_until(lock, until);
      if (harvest()) return;
    }
    budget.poll_and_check(what);
  }
}

Status Request::wait() {
  HookScope hook("MPI_Wait()");
  CCAPERF_REQUIRE(state_, "Request::wait on an invalid request");
  Status result;
  wait_any(std::span<Request>(this, 1), "wait",
           [&result](std::size_t, const Status& s) { result = s; });
  hook.set_bytes(result.bytes);
  return result;
}

std::optional<Status> Request::test() {
  HookScope hook("MPI_Test()");
  if (state_ && state_->failed.load(std::memory_order_acquire) != 0)
    raise_failed(*state_, "test");
  if (!state_ || !state_->ready()) {
    // test() is the progress engine of spin loops: drive the fault layer so
    // held/dropped messages can still move while the caller polls.
    if (state_ && state_->fabric != nullptr) state_->fabric->fault_poll();
    return std::nullopt;
  }
  Status s = state_->status;
  hook.set_bytes(s.bytes);
  emit_recv_event(*state_);
  state_.reset();
  return s;
}

void Request::release() {
  // Dropping the (unique) handle to an unmatched operation must remove its
  // mailbox entry, so the fabric does not later read/write through a
  // pointer into memory the caller may have freed: a posted receive for
  // recv requests, a parked ack-at-match message for send requests.
  // Re-check `matched` under the mailbox lock: the peer matches under the
  // same lock.
  if (!state_) return;
  detail::ReqState& st = *state_;
  if (st.mailbox != nullptr && !st.matched.load(std::memory_order_acquire)) {
    std::scoped_lock lock(st.mailbox->mu);
    if (!st.matched.load(std::memory_order_acquire)) {
      if (st.kind == detail::ReqState::Kind::recv) {
        auto& posted = st.mailbox->posted;
        for (auto it = posted.begin(); it != posted.end(); ++it) {
          if (it->post_id == st.post_id) {
            posted.erase(it);
            break;
          }
        }
      } else {
        auto& unexpected = st.mailbox->unexpected;
        for (auto it = unexpected.begin(); it != unexpected.end(); ++it) {
          if (it->ack != nullptr && it->park_id == st.post_id) {
            unexpected.erase(it);
            break;
          }
        }
      }
    }
  }
  state_.reset();
}

std::size_t wait_some(std::span<Request> reqs, std::vector<int>& indices,
                      std::vector<Status>* statuses) {
  HookScope hook("MPI_Waitsome()");
  indices.clear();
  if (statuses) statuses->clear();
  if (!any_valid(reqs)) return 0;
  std::size_t total_bytes = 0;
  Request::wait_any(reqs, "wait_some", [&](std::size_t i, const Status& s) {
    indices.push_back(static_cast<int>(i));
    if (statuses) statuses->push_back(s);
    total_bytes += s.bytes;
  });
  hook.set_bytes(total_bytes);
  return indices.size();
}

void wait_all(std::span<Request> reqs) {
  HookScope hook("MPI_Waitall()");
  std::size_t total = 0;
  while (any_valid(reqs))
    Request::wait_any(reqs, "wait_all",
                      [&total](std::size_t, const Status& s) { total += s.bytes; });
  hook.set_bytes(total);
}

// ---------------------------------------------------------------------------
// Point to point
// ---------------------------------------------------------------------------

void Comm::report_stale_fallback(std::size_t segments) {
  fabric_->count_stale_fallback();
  if (CommHooks* h = hooks())
    h->on_fault(FaultEvent{FaultEvent::Type::stale_fallback, FaultKind::none,
                           -1, rank_, 0,
                           static_cast<std::uint32_t>(segments)});
}

Request Comm::isend_bytes(const void* data, std::size_t bytes, int dest, int tag) {
  HookScope hook("MPI_Isend()");
  hook.set_bytes(bytes);
  CCAPERF_REQUIRE(valid(), "isend on invalid communicator");
  CCAPERF_REQUIRE(dest >= 0 && dest < size(), "isend: destination out of range");

  auto st = std::make_shared<detail::ReqState>();
  st->kind = detail::ReqState::Kind::send;
  st->status = Status{rank_, tag, bytes};
  st->signal = &fabric_->signal(rank_);
  st->abort_flag = fabric_->abort_flag();
  st->fabric = fabric_;
  fabric_->send(context_, rank_, dest, tag, data, bytes, st);
  emit_send_event(*st);
  return Request(std::move(st));
}

Request Comm::irecv_bytes(void* buffer, std::size_t capacity, int src, int tag) {
  HookScope hook("MPI_Irecv()");
  CCAPERF_REQUIRE(valid(), "irecv on invalid communicator");
  CCAPERF_REQUIRE(src == any_source || (src >= 0 && src < size()),
                  "irecv: source out of range");

  auto st = std::make_shared<detail::ReqState>();
  st->kind = detail::ReqState::Kind::recv;
  st->signal = &fabric_->signal(rank_);
  st->abort_flag = fabric_->abort_flag();
  st->fabric = fabric_;
  detail::Mailbox& mb = fabric_->mailbox(context_, rank_);
  st->mailbox = &mb;
  std::shared_ptr<detail::ReqState> sender;  // ack-at-match send to complete
  {
    std::scoped_lock lock(mb.mu);
    for (auto it = mb.unexpected.begin(); it != mb.unexpected.end(); ++it) {
      if (detail::matches(src, tag, it->src, it->tag)) {
        const std::size_t msg_bytes = it->payload.size();
        CCAPERF_REQUIRE(msg_bytes <= capacity,
                        "message truncation: receive buffer too small");
        if (msg_bytes > 0) {
          std::memcpy(buffer, it->payload.data(), msg_bytes);
          fabric_->pool().release(std::move(it->payload));
        }
        if (it->ack != nullptr) {
          // The send completes now; stamp its delivery time before `matched`.
          sender = std::move(it->ack);
          sender->deliver_at = it->deliver_at;
        }
        st->status = Status{it->src, it->tag, msg_bytes};
        st->deliver_at = it->deliver_at;
        st->src_world = it->src_world;
        st->dst_world = it->dst_world;
        st->seq = it->seq;
        mb.unexpected.erase(it);
        st->matched.store(true, std::memory_order_release);
        break;
      }
    }
    if (!st->matched.load(std::memory_order_relaxed)) {
      detail::PostedRecv posted;
      posted.src = src;
      posted.tag = tag;
      posted.buffer = static_cast<std::byte*>(buffer);
      posted.capacity = capacity;
      posted.post_id = mb.next_post_id++;
      st->post_id = posted.post_id;
      posted.state = st;
      mb.posted.push_back(std::move(posted));
    }
  }
  if (sender) {
    sender->matched.store(true, std::memory_order_release);
    sender->signal->notify();
  }
  // Acquire: once the recv is posted into the mailbox, a peer's route()
  // may write st->status and release-store `matched` concurrently, and the
  // status read below must synchronize with that store.
  if (st->matched.load(std::memory_order_acquire)) {
    fabric_->note_activity();
    hook.set_bytes(st->status.bytes);
  }
  return Request(std::move(st));
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------
//
// Every collective runs over per-rank HopSlot relays: a dissemination
// barrier and binomial-tree reduce and bcast (allreduce = reduce to rank 0
// + bcast; dup broadcasts the new context id) — O(log n) rounds per rank,
// for any rank count (no power-of-two requirement). Internal hops open no hook bracket and
// draw no modeled delay: each public call keeps one MPI hook bracket and
// exactly one NetworkModel draw per rank, with the bytes the MPI call
// moves, so clean-run traces and counters do not depend on the algorithm.
// Per-hop progress is visible through CommHooks::on_collective_hop.

namespace {

/// Rounds of a log-depth collective over n ranks: ceil(log2 n).
int tree_rounds(int n) {
  return static_cast<int>(std::bit_width(static_cast<unsigned>(n - 1)));
}

}  // namespace

std::uint64_t Comm::next_generation() const {
  CCAPERF_REQUIRE(valid(), "collective on invalid communicator");
  return ++hop_slot(rank_).generation;
}

void Comm::hop_send(int dest, std::uint64_t gen, int round,
                    const void* data, std::size_t bytes, const char* op) const {
  detail::HopSlot& slot = hop_slot(dest);
  std::vector<std::byte> payload;
  if (bytes > 0) {
    payload = fabric_->pool().acquire(bytes);
    std::memcpy(payload.data(), data, bytes);
  }
  {
    std::scoped_lock lock(slot.mu);
    slot.arrived.emplace(std::make_pair(gen, round), std::move(payload));
    slot.cv.notify_all();
  }
  fabric_->note_activity();
  if (CommHooks* h = hooks())
    h->on_collective_hop(HopEvent{op, round, dest, bytes});
}

void Comm::hop_recv(std::uint64_t gen, int round, void* out, std::size_t bytes,
                    const char* op) const {
  detail::HopSlot& slot = hop_slot(rank_);
  const auto key = std::make_pair(gen, round);
  std::vector<std::byte> payload;
  // Bounded quanta with Request::wait's timeout and no-progress bounds: a
  // peer that never joins the collective surfaces as a CommError instead
  // of a hang.
  WaitBudget budget(fabric_);
  for (;;) {
    {
      std::unique_lock lock(slot.mu);
      slot.cv.wait_for(lock, budget.quantum(), [&] {
        return slot.arrived.count(key) != 0 || fabric_->is_aborted();
      });
      auto it = slot.arrived.find(key);
      if (it != slot.arrived.end()) {
        payload = std::move(it->second);
        slot.arrived.erase(it);
        break;
      }
      if (fabric_->is_aborted())
        throw CommError(CommErrc::aborted, std::string("mpp: ") + op +
                                               " aborted (a peer rank failed)");
    }
    budget.check(op);
  }
  CCAPERF_REQUIRE(payload.size() == bytes, "collective: hop payload size mismatch");
  if (bytes > 0) {
    std::memcpy(out, payload.data(), bytes);
    fabric_->pool().release(std::move(payload));
  }
}

void Comm::tree_bcast(std::uint64_t gen, int round, void* data, std::size_t bytes,
                      const char* op) const {
  // Rank r receives once, from r minus its lowest set bit, then forwards
  // to r + 2^k for every 2^k below that bit. One receive per rank, so every
  // hop can carry the same round.
  const int n = size();
  int mask = 1;
  while (mask < n && (rank_ & mask) == 0) mask <<= 1;
  if (rank_ != 0) hop_recv(gen, round, data, bytes, op);
  for (mask >>= 1; mask > 0; mask >>= 1)
    if (rank_ + mask < n) hop_send(rank_ + mask, gen, round, data, bytes, op);
}

void Comm::tree_reduce(std::uint64_t gen, void* acc, std::size_t bytes,
                       std::size_t count, CombineFn combine, const char* op) const {
  // Level k: ranks that are multiples of 2^(k+1) absorb the subtree of
  // rank + 2^k; odd multiples of 2^k hand theirs up and stop.
  const int n = size();
  std::vector<std::byte> child;  // acquired on the first child hop
  int round = 0;
  for (int mask = 1; mask < n; mask <<= 1, ++round) {
    if (rank_ & mask) {
      hop_send(rank_ - mask, gen, round, acc, bytes, op);
      break;
    }
    if (rank_ + mask < n) {
      if (child.size() != bytes) child = fabric_->pool().acquire(bytes);
      hop_recv(gen, round, child.data(), bytes, op);
      combine(acc, child.data(), count);
    }
  }
  if (!child.empty()) fabric_->pool().release(std::move(child));
}

void Comm::barrier() {
  HookScope hook("MPI_Barrier()");
  const std::uint64_t gen = next_generation();
  // Dissemination: in round k every rank signals (rank + 2^k) and waits on
  // (rank - 2^k); after ceil(log2 n) rounds each rank transitively heard
  // from everyone.
  const int n = size();
  int round = 0;
  for (int dist = 1; dist < n; dist <<= 1, ++round) {
    hop_send((rank_ + dist) % n, gen, round, nullptr, 0, "MPI_Barrier()");
    hop_recv(gen, round, nullptr, 0, "MPI_Barrier()");
  }
  sleep_us(fabric_->delay_us(rank_, 0));
}

void Comm::allreduce_bytes(const void* in, void* out, std::size_t elem_bytes,
                           std::size_t count, CombineFn combine) {
  HookScope hook("MPI_Allreduce()");
  const std::size_t bytes = elem_bytes * count;
  hook.set_bytes(bytes);
  const std::uint64_t gen = next_generation();
  // One algorithm at every size: reduce to rank 0, then broadcast, so the
  // combine order (and with it a floating-point sum) is fixed by the tree.
  if (bytes > 0) std::memmove(out, in, bytes);
  tree_reduce(gen, out, bytes, count, combine, "MPI_Allreduce()");
  tree_bcast(gen, tree_rounds(size()), out, bytes, "MPI_Allreduce()");
  sleep_us(fabric_->delay_us(rank_, bytes));
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

double Comm::wtime() const {
  HookScope hook("MPI_Wtime()");
  CCAPERF_REQUIRE(valid(), "wtime on invalid communicator");
  return fabric_->wtime_seconds();
}

Comm Comm::dup() const {
  HookScope hook("MPI_Comm_dup()");
  const std::uint64_t gen = next_generation();
  // Rank 0 allocates the context id and broadcasts it.
  std::uint64_t new_context = 0;
  if (rank_ == 0) new_context = fabric_->allocate_context();
  tree_bcast(gen, 0, &new_context, sizeof new_context, "MPI_Comm_dup()");
  sleep_us(fabric_->delay_us(rank_, 0));
  fabric_->ensure_context(new_context);
  return Comm(fabric_, new_context, rank_);
}

}  // namespace mpp
