#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contract.hpp"
#include "common/hash.hpp"

namespace pmc {

namespace {
/// Pids below this use the dense per-sender table; a sentinel-like sender
/// falls back to the sparse map instead of forcing a huge resize.
constexpr ProcessId kDenseSenderLimit = ProcessId{1} << 26;

// Injector stream labels (see the header comment): each per-message
// injector draw runs on Rng(fnv1a(msg_seed, label)), derived only when the
// injector is on, so calm runs consume exactly the legacy draws.
constexpr std::uint64_t kLatencyDrawLabel = 0x1a7e9c1d;
constexpr std::uint64_t kDuplicateDrawLabel = 0xd0b1e77a;
constexpr std::uint64_t kReorderDrawLabel = 0x5e0cde55;
}  // namespace

Network::Network(Scheduler& sched, NetworkConfig config, Rng rng)
    : sched_(sched), config_(config), draw_seed_(rng.next_u64()) {
  PMC_EXPECTS(config_.loss_probability >= 0.0 &&
              config_.loss_probability <= 1.0);
  PMC_EXPECTS(config_.latency_min >= 0 &&
              config_.latency_min <= config_.latency_max);
}

void Network::ensure_sender_states(std::size_t count) {
  const std::size_t old = senders_.size();
  if (count <= old) return;
  senders_.resize(count);
  // The prefix hashes the *global* pid: rebasing relocates state, it must
  // never relabel a sender's draw stream.
  for (std::size_t i = old; i < count; ++i)
    senders_[i].prefix = fnv1a_u64(kFnv1aBasis ^ draw_seed_, pid_base_ + i);
}

void Network::reserve(std::size_t max_processes) {
  PMC_EXPECTS(max_processes <= kDenseSenderLimit);
  if (max_processes > handlers_.size()) handlers_.resize(max_processes);
  ensure_sender_states(max_processes);
}

void Network::reserve_range(ProcessId pid_base, std::size_t count) {
  PMC_EXPECTS(handlers_.empty() && senders_.empty());
  pid_base_ = pid_base;
  reserve(count);
}

void Network::attach(ProcessId id, void* ctx, DispatchFn fn) {
  PMC_EXPECTS(fn != nullptr);
  PMC_EXPECTS(id >= pid_base_);
  const std::size_t idx = id - pid_base_;
  if (idx >= handlers_.size()) handlers_.resize(idx + 1);
  handlers_[idx] = HandlerSlot{fn, ctx};
  boxed_handlers_.erase(id);
}

void Network::attach(ProcessId id, Handler handler) {
  PMC_EXPECTS(handler != nullptr);
  PMC_EXPECTS(id >= pid_base_);
  auto box = std::make_unique<Handler>(std::move(handler));
  Handler* raw = box.get();
  const std::size_t idx = id - pid_base_;
  if (idx >= handlers_.size()) handlers_.resize(idx + 1);
  handlers_[idx] = HandlerSlot{
      [](void* ctx, ProcessId from, const MessagePtr& msg) {
        (*static_cast<Handler*>(ctx))(from, msg);
      },
      raw};
  boxed_handlers_[id] = std::move(box);
}

void Network::detach(ProcessId id) {
  if (id >= pid_base_ && id - pid_base_ < handlers_.size())
    handlers_[id - pid_base_] = HandlerSlot{};
  boxed_handlers_.erase(id);
}

bool Network::attached(ProcessId id) const noexcept {
  return id >= pid_base_ && id - pid_base_ < handlers_.size() &&
         handlers_[id - pid_base_].fn != nullptr;
}

void Network::set_loss(double eps) {
  PMC_EXPECTS(eps >= 0.0 && eps <= 1.0);
  config_.loss_probability = eps;
}

void Network::set_duplication(double prob) {
  PMC_EXPECTS(prob >= 0.0 && prob <= 1.0);
  duplicate_probability_ = prob;
}

void Network::set_reorder(double prob, SimTime window) {
  PMC_EXPECTS(prob >= 0.0 && prob <= 1.0);
  PMC_EXPECTS(window >= 0);
  reorder_probability_ = prob;
  reorder_window_ = window;
}

Network::FilterToken Network::add_link_filter(LinkFilter filter) {
  PMC_EXPECTS(filter != nullptr);
  const FilterToken token = next_filter_token_++;
  filters_.emplace_back(token, std::move(filter));
  return token;
}

void Network::remove_link_filter(FilterToken token) {
  std::erase_if(filters_,
                [token](const auto& entry) { return entry.first == token; });
}

bool Network::passes_filters(ProcessId from, ProcessId to) const {
  if (filter_ && !filter_(from, to)) return false;
  for (const auto& [token, filter] : filters_) {
    if (!filter(from, to)) return false;
  }
  return true;
}

std::uint64_t Network::next_draw_seed(ProcessId from) {
  // Labeled per-message draw: (seed, sender, sender-sequence) alone decide
  // loss and latency (see draw_seed_'s comment). The sender half of the
  // hash is memoized per pid; only the sequence byte-mix runs per message.
  if (from >= pid_base_ && from - pid_base_ < kDenseSenderLimit) {
    const std::size_t idx = from - pid_base_;
    if (idx >= senders_.size()) ensure_sender_states(idx + 1);
    SenderState& s = senders_[idx];
    return fnv1a_u64(s.prefix, s.seq++);
  }
  return fnv1a_u64(fnv1a_u64(kFnv1aBasis ^ draw_seed_, from),
                   sparse_send_seq_[from]++);
}

SimTime Network::draw_latency(ProcessId from, ProcessId to,
                              std::uint64_t msg_seed, Rng& legacy) {
  if (latency_model_) {
    Rng model_rng(fnv1a_u64(msg_seed, kLatencyDrawLabel));
    const SimTime latency = latency_model_(from, to, model_rng);
    PMC_EXPECTS(latency >= 0);
    return latency;
  }
  const SimTime span = config_.latency_max - config_.latency_min;
  return config_.latency_min +
         (span > 0 ? static_cast<SimTime>(legacy.next_below(
                         static_cast<std::uint64_t>(span) + 1))
                   : 0);
}

void Network::schedule_delivery(ProcessId from, ProcessId to, SimTime latency,
                                MessagePtr msg) {
  // The capture list fits UniqueFunction's inline storage: delivery costs
  // no allocation beyond the shared payload's refcount bump.
  sched_.schedule_after(latency, [this, from, to, msg = std::move(msg)] {
    const std::size_t idx = to - pid_base_;
    if (to >= pid_base_ && idx < handlers_.size() &&
        handlers_[idx].fn != nullptr) {
      ++counters_.delivered;
      handlers_[idx].fn(handlers_[idx].ctx, from, msg);
    } else {
      ++counters_.dead_target;
    }
  });
}

void Network::deliver_after_draw(ProcessId from, ProcessId to,
                                 MessagePtr msg) {
  // ε is validated where it is set (constructor, set_loss).
  const double eps = config_.loss_probability;
  const std::uint64_t msg_seed = next_draw_seed(from);
  Rng draw(msg_seed);
  if (eps > 0.0 && draw.bernoulli(eps)) {
    ++counters_.lost;
    return;
  }
  SimTime latency = draw_latency(from, to, msg_seed, draw);
  // Injector draws run on their own (msg_seed, label) streams and only
  // when the injector is on — so enabling one never shifts the loss or
  // latency draws, and calm runs replay builds that predate the injectors.
  if (reorder_probability_ > 0.0) {
    Rng reorder(fnv1a_u64(msg_seed, kReorderDrawLabel));
    if (reorder.bernoulli(reorder_probability_) && reorder_window_ > 0) {
      latency += static_cast<SimTime>(reorder.next_below(
          static_cast<std::uint64_t>(reorder_window_) + 1));
      ++counters_.reordered;
    }
  }
  if (duplicate_probability_ > 0.0) {
    Rng dup(fnv1a_u64(msg_seed, kDuplicateDrawLabel));
    if (dup.bernoulli(duplicate_probability_)) {
      // The clone draws its own latency from the duplicate stream (model
      // or uniform), so the copies race each other — the receiver's dedup
      // path is exercised under both orders.
      SimTime dup_latency;
      if (latency_model_) {
        dup_latency = latency_model_(from, to, dup);
        PMC_EXPECTS(dup_latency >= 0);
      } else {
        const SimTime span = config_.latency_max - config_.latency_min;
        dup_latency = config_.latency_min +
                      (span > 0 ? static_cast<SimTime>(dup.next_below(
                                      static_cast<std::uint64_t>(span) + 1))
                                : 0);
      }
      ++counters_.duplicated;
      schedule_delivery(from, to, dup_latency, msg);
    }
  }
  schedule_delivery(from, to, latency, std::move(msg));
}

void Network::send(ProcessId from, ProcessId to, MessagePtr msg) {
  PMC_EXPECTS(msg != nullptr);
  ++counters_.sent;
  if (!passes_filters(from, to)) {
    ++counters_.filtered;
    return;
  }
  if (transcoder_) {
    msg = transcoder_(msg);
    if (msg == nullptr) {
      ++counters_.filtered;
      return;
    }
  }
  deliver_after_draw(from, to, std::move(msg));
}

namespace {

/// One LogNormal draw: median * exp(sigma * z), rounded to integer
/// sim-time and clamped into [floor, cap]. llround pins the float ->
/// sim-time edge to a fully specified rounding.
SimTime lognormal_draw(const LogNormalParams& params, SimTime floor,
                       SimTime cap, Rng& rng) {
  const double sample =
      static_cast<double>(params.median) * std::exp(params.sigma *
                                                    rng.next_normal());
  const double capped =
      std::min(sample, static_cast<double>(std::numeric_limits<SimTime>::max()));
  return std::clamp(static_cast<SimTime>(std::llround(capped)), floor, cap);
}

void check_lognormal(const LogNormalParams& params, SimTime floor,
                     SimTime cap) {
  PMC_EXPECTS(params.median > 0);
  PMC_EXPECTS(params.sigma >= 0.0 && params.sigma <= 4.0);
  PMC_EXPECTS(floor >= 0 && floor <= cap);
}

}  // namespace

Network::LatencyModel make_lognormal_latency(LogNormalParams params,
                                             SimTime floor, SimTime cap) {
  check_lognormal(params, floor, cap);
  return [params, floor, cap](ProcessId, ProcessId, Rng& rng) {
    return lognormal_draw(params, floor, cap, rng);
  };
}

Network::LatencyModel make_zoned_latency(
    std::function<std::uint32_t(ProcessId)> zone_of, LogNormalParams local,
    LogNormalParams wan, SimTime floor, SimTime cap) {
  PMC_EXPECTS(zone_of != nullptr);
  check_lognormal(local, floor, cap);
  check_lognormal(wan, floor, cap);
  return [zone_of = std::move(zone_of), local, wan, floor,
          cap](ProcessId from, ProcessId to, Rng& rng) {
    const LogNormalParams& params =
        zone_of(from) == zone_of(to) ? local : wan;
    return lognormal_draw(params, floor, cap, rng);
  };
}

void Network::send_multi(ProcessId from, std::span<const ProcessId> to,
                         const MessagePtr& msg) {
  PMC_EXPECTS(msg != nullptr);
  // The transcoder runs at most once for the whole fan-out — but only
  // when some destination actually passes the filters, so a fully
  // partitioned fan-out costs (and counts) exactly what N send() calls
  // would.
  MessagePtr shared = msg;
  bool transcoded = transcoder_ == nullptr;
  for (const ProcessId dest : to) {
    ++counters_.sent;
    if (!passes_filters(from, dest)) {
      ++counters_.filtered;
      continue;
    }
    if (!transcoded) {
      shared = transcoder_(shared);
      transcoded = true;
    }
    if (shared == nullptr) {
      ++counters_.filtered;
      continue;
    }
    deliver_after_draw(from, dest, shared);
  }
}

}  // namespace pmc
