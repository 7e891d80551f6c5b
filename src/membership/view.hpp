// Per-depth membership view tables (paper Fig. 2).
//
// A process keeps one table per depth i of the tree. Each row describes one
// populated subgroup reachable by appending an infix x(i) to the process's
// prefix of length i-1: the subgroup's regrouped interests, its process
// count, and the R delegates representing it ("postfixes" in Fig. 2). At the
// leaf depth d a row is a single immediate-neighbor process. Rows carry a
// version for the gossip-pull anti-entropy of Sec. 2.3 (newer version wins)
// and an `alive` flag so departures/failures propagate as tombstones.
//
// Layout: DepthView is struct-of-arrays. A row is not a struct — it is index
// i into parallel arrays (infix, version, count, alive, pooled interest
// summary, CSR slice of interned delegate ids), so recompact_own_rows and
// digest construction are linear scans over flat memory and a row costs a
// few dozen bytes instead of a ViewRow's several heap blocks. The ViewRow
// struct remains as the *exchange* format — the unit the wire codec encodes
// and anti-entropy ships — materialized from / interned into the arrays at
// the network boundary only. It carries the interest summary by handle:
// materializing a row copies the pooled pointer, never the summary, and
// upsert() decides on the version before it interns anything, so the stale
// rows anti-entropy keeps re-sending cost one binary search each.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "addr/address.hpp"
#include "addr/intern.hpp"
#include "common/intern_pool.hpp"
#include "filter/regroup.hpp"
#include "membership/config.hpp"

namespace pmc {

/// The shared interning state of one simulation/runtime: every view, node
/// and directory hosted together binds to one Interns so AddrIds and pooled
/// summaries are comparable across them. Owned by the harness (ChurnSim /
/// ShardedSim / experiment population) or by the test itself.
struct Interns {
  AddrInternTable addrs;
  /// Anti-entropy converges whole subgroups onto structurally identical
  /// summaries; pooling stores each distinct value once per simulation.
  InternPool<InterestSummary> summaries;

  /// Pre-size for `processes` distinct addresses of depth `depth`
  /// (mirrors Network::reserve).
  void reserve(std::size_t processes, std::size_t depth) {
    addrs.reserve(processes, depth);
  }
};

struct ViewRow {
  AddrComponent infix = 0;          ///< subgroup's component at this depth
  std::vector<Address> delegates;   ///< R delegates; the process itself at depth d
  /// Regrouped interests of the subgroup, shared and immutable. Never null
  /// once the row is stored or encoded; it need not be pooled yet.
  std::shared_ptr<const InterestSummary> interests;
  std::uint64_t process_count = 0;  ///< processes represented by the row
  std::uint64_t version = 0;        ///< anti-entropy logical timestamp
  bool alive = true;                ///< false: tombstone (left or crashed)
};

/// A row tagged with the depth of the table it belongs to — the unit of
/// membership exchange (anti-entropy updates, view transfers, and rows
/// piggybacked on event gossip).
struct DepthRow {
  std::uint32_t depth = 0;
  ViewRow row;
};

/// One depth's table: rows sorted by infix, unique per infix, stored as
/// parallel arrays (see file comment). Must be bound to an Interns before
/// any row is inserted.
class DepthView {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  DepthView() = default;

  void bind(Interns& interns) noexcept { interns_ = &interns; }
  Interns& interns() const {
    PMC_EXPECTS(interns_ != nullptr);
    return *interns_;
  }

  std::size_t size() const noexcept { return infix_.size(); }
  bool empty() const noexcept { return infix_.empty(); }

  /// Index of the row with this infix, or npos.
  std::size_t find_index(AddrComponent infix) const noexcept;

  AddrComponent infix(std::size_t i) const { return infix_[i]; }
  std::uint64_t version(std::size_t i) const { return version_[i]; }
  std::uint64_t process_count(std::size_t i) const { return count_[i]; }
  bool alive(std::size_t i) const { return alive_[i] != 0; }
  const InterestSummary& interests(std::size_t i) const {
    return *interests_[i];
  }
  const std::shared_ptr<const InterestSummary>& interests_ptr(
      std::size_t i) const {
    return interests_[i];
  }
  /// The row's delegates, in their published order.
  std::span<const AddrId> delegates(std::size_t i) const {
    return {del_pool_.data() + del_begin_[i], del_len_[i]};
  }
  AddrId first_delegate(std::size_t i) const {
    PMC_EXPECTS(del_len_[i] > 0);
    return del_pool_[del_begin_[i]];
  }

  /// Inserts or replaces from the exchange format; on replace the higher
  /// version wins (ties keep the incumbent). Only a row that wins is
  /// interned (delegates and pooled summary), so a rejected row leaves the
  /// intern state untouched. Returns true if the table changed.
  bool upsert(const ViewRow& row);

  /// Same merge rule, already-interned inputs (the recompaction hot path:
  /// no Address or summary copies).
  bool upsert_pooled(AddrComponent infix, std::span<const AddrId> delegates,
                     std::shared_ptr<const InterestSummary> interests,
                     std::uint64_t process_count, std::uint64_t version,
                     bool alive);

  /// Removes a row outright (local maintenance; prefer tombstones for
  /// anti-entropy-visible departures).
  bool erase(AddrComponent infix);

  /// Bumped on every change (upsert that took effect, erase). Lets callers
  /// cache derived state — recompaction skips depths whose inputs did not
  /// change since the last pass.
  std::uint64_t mutations() const noexcept { return mutations_; }

  /// Number of live rows.
  std::size_t live_count() const noexcept;
  /// Sum of process_count over live rows.
  std::uint64_t total_processes() const noexcept;

  /// Rebuilds the exchange-format row byte-for-byte (delegates in published
  /// order) for wire encodes and anti-entropy replies; `interests` is the
  /// pooled handle itself.
  ViewRow materialize(std::size_t i) const;

  std::string to_string() const;

 private:
  /// Where `infix` lives or would be inserted, and whether a row is there.
  std::pair<std::size_t, bool> locate(AddrComponent infix) const noexcept;
  /// Stores at `i`: replaces the row there when `found`, else inserts a new
  /// row at `i`. The caller has already checked the version.
  void place(std::size_t i, bool found, AddrComponent infix,
             std::span<const AddrId> delegates,
             std::shared_ptr<const InterestSummary> interests,
             std::uint64_t process_count, std::uint64_t version, bool alive);
  void set_delegates(std::size_t i, std::span<const AddrId> delegates);
  void compact_pool();

  Interns* interns_ = nullptr;

  // Parallel arrays, index = row, sorted by infix_, unique infixes.
  std::vector<AddrComponent> infix_;
  std::vector<std::uint64_t> version_;
  std::vector<std::uint64_t> count_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::shared_ptr<const InterestSummary>> interests_;
  std::vector<std::uint32_t> del_begin_;  ///< offset into del_pool_
  std::vector<std::uint32_t> del_len_;

  /// CSR delegate-id pool. Replacements reuse the slice in place when the
  /// new list fits, else append; compact_pool() reclaims once garbage
  /// dominates.
  std::vector<AddrId> del_pool_;
  std::size_t live_delegates_ = 0;  ///< referenced entries of del_pool_
  std::vector<AddrId> id_scratch_;     ///< upsert() interning buffer
  std::vector<AddrId> alias_scratch_;  ///< set_delegates() detach buffer

  std::uint64_t mutations_ = 0;
};

/// The complete membership knowledge of one process: its address plus one
/// DepthView per depth 1..d. Depth i is indexed as view(i), 1-based to match
/// the paper.
class MembershipView {
 public:
  MembershipView(Address self, TreeConfig config, Interns& interns);

  const Address& self() const noexcept { return self_; }
  AddrId self_id() const noexcept { return self_id_; }
  const TreeConfig& config() const noexcept { return config_; }
  Interns& interns() const noexcept { return *interns_; }

  DepthView& view(std::size_t depth);
  const DepthView& view(std::size_t depth) const;

  /// Total processes known (Eq. 2): live delegates at depths < d plus live
  /// neighbors at depth d; a process appearing at several depths is counted
  /// once per appearance, as the paper does.
  std::size_t known_processes() const noexcept;

  std::string to_string() const;

 private:
  Address self_;
  AddrId self_id_ = kNoAddr;
  TreeConfig config_;
  Interns* interns_ = nullptr;
  std::vector<DepthView> depths_;
};

}  // namespace pmc
