#include "amr/exchange.hpp"

#include <map>
#include <span>
#include <vector>

namespace amr {

namespace {

struct PlanItem {
  int src_id;
  int src_owner;
  int dst_id;
  int dst_owner;
  Box box;
};

}  // namespace

ExchangeStats exchange_copy(mpp::Comm& comm,
                            const std::vector<PatchInfo>& src_patches,
                            const SrcAccessor& src_data,
                            const std::vector<PatchInfo>& dst_patches,
                            const DstAccessor& dst_data,
                            const DstRegion& dst_region,
                            bool skip_same_id, int tag_base) {
  const int me = comm.rank();
  ExchangeStats stats;

  // Identical plan on every rank: deterministic double loop over shared
  // metadata.
  std::vector<PlanItem> plan;
  for (const PatchInfo& d : dst_patches) {
    const Box region = dst_region(d);
    if (region.empty()) continue;
    for (const PatchInfo& s : src_patches) {
      if (skip_same_id && s.id == d.id) continue;
      const Box overlap = s.box & region;
      if (overlap.empty()) continue;
      plan.push_back(PlanItem{s.id, s.owner, d.id, d.owner, overlap});
    }
  }
  stats.plan_items = plan.size();

  // Coalesce off-rank items by counterpart rank: one packed message per
  // (peer, direction). Both sides walk the shared ascending plan order, so
  // segment offsets agree without carrying any header. std::map keeps peer
  // iteration deterministic across ranks.
  std::map<int, std::vector<std::size_t>> send_groups;  // dest rank -> plan idx
  std::map<int, std::vector<std::size_t>> recv_groups;  // src rank  -> plan idx
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const PlanItem& item = plan[k];
    if (item.src_owner == me && item.dst_owner == me) {
      const PatchData<double>* src = src_data(item.src_id);
      CCAPERF_REQUIRE(src != nullptr, "exchange_copy: missing local source data");
      PatchData<double>* dst = dst_data(item.dst_id);
      CCAPERF_REQUIRE(dst != nullptr, "exchange_copy: missing local dest data");
      dst->copy_from(*src, item.box);
      ++stats.local_copies;
    } else if (item.src_owner == me) {
      send_groups[item.dst_owner].push_back(k);
    } else if (item.dst_owner == me) {
      recv_groups[item.src_owner].push_back(k);
    }
  }

  // Sends: pack every segment destined for one rank into one buffer. All
  // messages of this exchange share tag_base (matching disambiguates by
  // source rank).
  std::vector<mpp::Request> send_reqs;
  std::vector<std::vector<double>> send_bufs;  // keep alive until waited
  send_reqs.reserve(send_groups.size());
  send_bufs.reserve(send_groups.size());
  for (const auto& [dest, items] : send_groups) {
    send_bufs.emplace_back();
    std::vector<double>& buf = send_bufs.back();
    for (std::size_t k : items) {
      const PlanItem& item = plan[k];
      const PatchData<double>* src = src_data(item.src_id);
      CCAPERF_REQUIRE(src != nullptr, "exchange_copy: missing local source data");
      src->pack_append(item.box, buf);
    }
    send_reqs.push_back(comm.isend<double>(buf, dest, tag_base));
    ++stats.messages_sent;
    stats.segments_sent += items.size();
    stats.bytes_sent += buf.size() * sizeof(double);
  }

  // Receives: one buffer per source rank, sized from the shared metadata.
  struct Pending {
    int src_rank = 0;
    std::vector<std::size_t> items;  // plan indices, ascending
    std::vector<double> buffer;
  };
  std::vector<Pending> pending;
  pending.reserve(recv_groups.size());
  for (auto& [src_rank, items] : recv_groups) {
    Pending p;
    p.src_rank = src_rank;
    std::size_t total = 0;
    for (std::size_t k : items) {
      const PlanItem& item = plan[k];
      PatchData<double>* dst = dst_data(item.dst_id);
      CCAPERF_REQUIRE(dst != nullptr, "exchange_copy: missing local dest data");
      total += static_cast<std::size_t>(item.box.num_pts()) *
               static_cast<std::size_t>(dst->ncomp());
    }
    p.items = std::move(items);
    p.buffer.resize(total);
    pending.push_back(std::move(p));
  }
  std::vector<mpp::Request> recv_reqs;
  recv_reqs.reserve(pending.size());
  for (Pending& p : pending)
    recv_reqs.push_back(comm.irecv<double>(p.buffer, p.src_rank, tag_base));

  // Complete receives with wait_some, unpacking each packed message's
  // segments as it lands (the paper's AMRMesh ghost-update pattern). A
  // CommError timeout degrades gracefully: outstanding messages are
  // cancelled and their destination regions keep stale data, counted so
  // the telemetry stream shows the degradation.
  std::size_t outstanding = recv_reqs.size();
  std::vector<int> done;
  while (outstanding > 0) {
    std::size_t n = 0;
    try {
      n = mpp::wait_some(recv_reqs, done);
    } catch (const mpp::CommError& err) {
      if (err.code() != mpp::CommErrc::timeout &&
          err.code() != mpp::CommErrc::no_progress)
        throw;
      for (std::size_t i = 0; i < recv_reqs.size(); ++i) {
        if (!recv_reqs[i].valid()) continue;
        Pending& p = pending[i];
        ++stats.stale_messages;
        stats.stale_segments += p.items.size();
        recv_reqs[i] = mpp::Request();  // cancels the posted receive
      }
      comm.report_stale_fallback(stats.stale_segments);
      break;
    }
    CCAPERF_REQUIRE(n > 0, "exchange_copy: wait_some made no progress");
    for (int idx : done) {
      Pending& p = pending[static_cast<std::size_t>(idx)];
      const std::span<const double> msg(p.buffer);
      std::size_t off = 0;
      for (std::size_t k : p.items) {
        const PlanItem& item = plan[k];
        PatchData<double>* dst = dst_data(item.dst_id);
        const std::size_t len = static_cast<std::size_t>(item.box.num_pts()) *
                                static_cast<std::size_t>(dst->ncomp());
        dst->unpack(item.box, msg.subspan(off, len));
        off += len;
      }
      ++stats.messages_received;
      stats.segments_received += p.items.size();
      stats.bytes_received += p.buffer.size() * sizeof(double);
    }
    outstanding -= n;
  }

  try {
    mpp::wait_all(send_reqs);
  } catch (const mpp::CommError& err) {
    if (err.code() != mpp::CommErrc::timeout &&
        err.code() != mpp::CommErrc::no_progress &&
        err.code() != mpp::CommErrc::retry_exhausted)
      throw;
    // A send the peer will never acknowledge: drop the remaining handles
    // (parked messages are cancelled) and count the failure.
    ++stats.send_failures;
    for (mpp::Request& r : send_reqs) r = mpp::Request();
  }
  return stats;
}

ExchangeStats exchange_ghosts(mpp::Comm& comm, Level& level, int nghost,
                              int tag_base) {
  auto src = [&](int id) -> const PatchData<double>* {
    return level.has_data(id) ? &level.data(id) : nullptr;
  };
  auto dst = [&](int id) -> PatchData<double>* {
    return level.has_data(id) ? &level.data(id) : nullptr;
  };
  return exchange_copy(
      comm, level.patches(), src, level.patches(), dst,
      [nghost](const PatchInfo& p) { return p.box.grown(nghost); },
      /*skip_same_id=*/true, tag_base);
}

}  // namespace amr
