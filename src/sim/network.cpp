#include "sim/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/contract.hpp"
#include "common/hash.hpp"

namespace pmc {

namespace {
/// Senders live in [pid_base_, pid_base_ + kDenseSenderLimit): the dense
/// per-sender table grows on demand up to this bound.
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

void Network::reserve_range(ProcessId pid_base, std::size_t count) {
  PMC_EXPECTS(handlers_.empty() && senders_.empty());
  PMC_EXPECTS(count <= kDenseSenderLimit);
  pid_base_ = pid_base;
  handlers_.resize(count);
  ensure_sender_states(count);
}

void Network::attach(ProcessId id, void* ctx, DispatchFn fn) {
  PMC_EXPECTS(fn != nullptr);
  PMC_EXPECTS(id >= pid_base_);
  const std::size_t idx = id - pid_base_;
  if (idx >= handlers_.size()) handlers_.resize(idx + 1);
  handlers_[idx] = HandlerSlot{fn, ctx};
}

void Network::detach(ProcessId id) {
  if (id >= pid_base_ && id - pid_base_ < handlers_.size())
    handlers_[id - pid_base_] = HandlerSlot{};
}

void Network::set_loss(double eps) {
  PMC_EXPECTS(eps >= 0.0 && eps <= 1.0);
  config_.loss_probability = eps;
}

void Network::set_latency(std::optional<LogNormalLatency> profile) {
  if (profile) {
    PMC_EXPECTS(profile->median > 0);
    PMC_EXPECTS(profile->sigma >= 0.0 && profile->sigma <= 4.0);
    PMC_EXPECTS(profile->floor >= 0 && profile->floor <= profile->cap);
  }
  latency_ = profile;
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
  for (const auto& [token, filter] : filters_) {
    if (!filter(from, to)) return false;
  }
  return true;
}

std::uint64_t Network::next_draw_seed(ProcessId from) {
  // Labeled per-message draw: (seed, sender, sender-sequence) alone decide
  // loss and latency (see draw_seed_'s comment). The sender half of the
  // hash is memoized per pid; only the sequence byte-mix runs per message.
  PMC_EXPECTS(from >= pid_base_ && from - pid_base_ < kDenseSenderLimit);
  const std::size_t idx = from - pid_base_;
  if (idx >= senders_.size()) ensure_sender_states(idx + 1);
  SenderState& s = senders_[idx];
  return fnv1a_u64(s.prefix, s.seq++);
}

SimTime Network::draw_latency(Rng& rng) const {
  if (latency_) {
    const LogNormalLatency& wan = *latency_;
    const double sample = static_cast<double>(wan.median) *
                          std::exp(wan.sigma * rng.next_normal());
    // Compare before rounding: past 2^63 llround overflows, so a tail
    // sample at or above the cap must not reach it.
    if (!(sample < static_cast<double>(wan.cap))) return wan.cap;
    // llround pins the float -> sim-time edge to a fully specified rounding.
    return std::clamp(static_cast<SimTime>(std::llround(sample)), wan.floor,
                      wan.cap);
  }
  const SimTime span = config_.latency_max - config_.latency_min;
  return config_.latency_min +
         (span > 0 ? static_cast<SimTime>(rng.next_below(
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
  SimTime latency;
  if (latency_) {
    Rng wan(fnv1a_u64(msg_seed, kLatencyDrawLabel));
    latency = draw_latency(wan);
  } else {
    latency = draw_latency(draw);
  }
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
      // The clone draws its own latency from the duplicate stream (WAN
      // profile or uniform), so the copies race each other — the
      // receiver's dedup path is exercised under both orders.
      ++counters_.duplicated;
      schedule_delivery(from, to, draw_latency(dup), msg);
    }
  }
  schedule_delivery(from, to, latency, std::move(msg));
}

void Network::send(ProcessId from, ProcessId to, MessagePtr msg) {
  send_multi(from, std::span(&to, 1), std::move(msg));
}

void Network::send_multi(ProcessId from, std::span<const ProcessId> to,
                         MessagePtr msg) {
  PMC_EXPECTS(msg != nullptr);
  // The transcoder runs at most once for the whole fan-out — but only
  // when some destination actually passes the filters, so a fully
  // partitioned fan-out costs (and counts) exactly what N send() calls
  // would.
  bool transcoded = transcoder_ == nullptr;
  for (std::size_t i = 0; i < to.size(); ++i) {
    ++counters_.sent;
    if (!passes_filters(from, to[i])) {
      ++counters_.filtered;
      continue;
    }
    if (!transcoded) {
      msg = transcoder_(msg);
      transcoded = true;
    }
    if (msg == nullptr) {
      ++counters_.filtered;
      continue;
    }
    if (i + 1 == to.size()) {
      // The last destination takes the caller's reference: a lone send
      // copies no pointer.
      deliver_after_draw(from, to[i], std::move(msg));
      break;
    }
    deliver_after_draw(from, to[i], msg);
  }
}

}  // namespace pmc
