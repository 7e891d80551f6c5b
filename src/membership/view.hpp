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
// struct remains as the *exchange* format, carried in a RowBatch that names
// the id space of its delegates: this runtime's ids in memory (also when
// this runtime's wire::Codec decoded it), an address list when decoded
// without one (only the codec turns ids into Addresses). A batch
// keeps its rows' delegates in one CSR pool, as DepthView does, so an
// in-memory batch is two allocations however many rows it carries. Message
// senders travel the same way, as an AddrRef. upsert() decides on the
// version first, so the stale rows anti-entropy keeps re-sending cost one
// binary search each.
#pragma once

#include <cstdint>
#include <functional>
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
#include "sim/network.hpp"

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
  /// (mirrors Network::reserve_range).
  void reserve(std::size_t processes, std::size_t depth) {
    addrs.reserve(processes, depth);
  }
};

/// Resolves an interned process address to its simulation ProcessId
/// (kNoProcess when unknown); in a deployment, the transport address the
/// view rows would carry. SyncNode, PmcastNode and TreecastNode take one.
using Directory = std::function<ProcessId(AddrId)>;

/// One row in the exchange format. Its delegates live in the pool of the
/// RowBatch that carries it (`RowBatch::delegates(row)`), as a CSR slice.
struct ViewRow {
  /// Regrouped interests of the subgroup, shared and immutable. Never null
  /// once the row is stored or encoded; pooled in an in-memory batch.
  std::shared_ptr<const InterestSummary> interests;
  std::uint64_t process_count = 0;  ///< processes represented by the row
  std::uint64_t version = 0;        ///< anti-entropy logical timestamp
  /// The R delegates (the process itself at depth d): offset and length of
  /// the row's slice of its batch's delegate pool.
  std::uint32_t delegates_begin = 0;
  std::uint32_t delegates_len = 0;
  AddrComponent infix = 0;          ///< subgroup's component at this depth
  bool alive = true;                ///< false: tombstone (left or crashed)
};

/// A row tagged with the depth of the table it belongs to.
struct DepthRow {
  std::uint32_t depth = 0;
  ViewRow row;
};

class DepthView;

/// The unit of membership exchange (anti-entropy updates, view transfers,
/// and rows piggybacked on event gossip): rows, one pool of their delegate
/// ids, and the id space those ids live in.
///  * In memory (`interns` set): built from a DepthView in the runtime that
///    owns `interns`, or read off the wire by that runtime's wire::Codec
///    (which finds every delegate among the runtime's ids and pools every
///    summary). Delegates are its AddrIds, summaries are handles pooled
///    there.
///  * Decoded (`interns` null): read off the wire by decode_message, or by
///    a codec when the batch names an address the runtime never interned
///    or holds a summary with opaque predicates. Delegates index
///    `addresses`, and summaries are fresh, not pooled.
struct RowBatch {
  RowBatch() = default;  ///< decoded, empty
  /// In memory, empty, in the id space of `in`.
  explicit RowBatch(const Interns& in) noexcept : interns(&in) {}

  const Interns* interns = nullptr;
  std::vector<Address> addresses;  ///< decoded batches only
  std::vector<AddrId> pool;        ///< every row's delegates, back to back
  std::vector<DepthRow> rows;

  bool empty() const noexcept { return rows.empty(); }
  auto begin() const noexcept { return rows.begin(); }
  auto end() const noexcept { return rows.end(); }

  /// A row's delegates, as ids of this batch.
  std::span<const AddrId> delegates(const ViewRow& row) const {
    PMC_EXPECTS(std::size_t{row.delegates_begin} + row.delegates_len <=
                pool.size());
    return {pool.data() + row.delegates_begin, row.delegates_len};
  }

  /// The address a delegate id of this batch names.
  const Address& address(AddrId id) const {
    if (interns != nullptr) return interns->addrs.resolve(id);
    PMC_EXPECTS(id < addresses.size());
    return addresses[id];
  }

  /// Appends `row` at `depth` with `ids` (ids of this batch) as its
  /// delegates; returns the stored row.
  ViewRow& append(std::uint32_t depth, ViewRow row,
                  std::span<const AddrId> ids);
  /// Appends row `i` of `dv`, a table of this batch's runtime: its
  /// delegate ids in published order, `interests` the pooled handle itself.
  ViewRow& append(std::uint32_t depth, const DepthView& dv, std::size_t i);
};

/// A process address as a membership message carries it, in RowBatch's two
/// forms:
///  * in memory (`interns` set): `id`, an AddrId of the sending runtime,
///    or of the receiving one when its wire::Codec found the address there;
///  * decoded (`interns` null): `decoded`, the Address read off the wire by
///    decode_message, or by a codec for an address its runtime never
///    interned.
/// Only the wire layer builds the decoded form, so in-memory traffic copies
/// no component vector and a receiver interns nothing it already has.
struct AddrRef {
  AddrRef() = default;  ///< decoded, empty
  AddrRef(const Interns& in, AddrId a) noexcept : interns(&in), id(a) {}
  explicit AddrRef(Address a) : decoded(std::move(a)) {}

  const Interns* interns = nullptr;
  AddrId id = kNoAddr;  ///< in-memory form only
  Address decoded;      ///< decoded form only

  const Address& address() const {
    return interns != nullptr ? interns->addrs.resolve(id) : decoded;
  }
  AddrComponent component(std::size_t i) const {
    return interns != nullptr ? interns->addrs.component(id, i)
                              : decoded.component(i);
  }
};

/// One depth's table: rows sorted by infix, unique per infix, stored as
/// parallel arrays (see file comment). Must be bound to an Interns before
/// any row is inserted.
///
/// Invariant: every summary handle a DepthView stores is pooled in its
/// Interns, and every delegate is an id of its Interns. Rows built in this
/// runtime are interned where they are created (GroupTree, SyncNode's join
/// and self rows, recompaction), and in-memory batches are filled only from
/// views (RowBatch::append) or by the runtime's codec, which finds ids and
/// pools summaries as it decodes, so upsert() stores an in-memory row
/// without interning or probing the pool. A decoded row is interned and
/// pooled only if it wins.
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

  /// Inserts or replaces a row of `batch`; on replace the higher version
  /// wins (ties keep the incumbent). An in-memory batch must come from this
  /// view's runtime (shards share nothing); its row is stored as it is. A
  /// decoded row is interned (delegates and pooled summary) only if it
  /// wins, so a rejected row leaves the intern state untouched. Returns
  /// true if the table changed.
  bool upsert(const ViewRow& row, const RowBatch& batch);

  /// Same merge rule, inputs already in this view's id space (ids of its
  /// Interns, a pooled summary handle).
  bool upsert_pooled(AddrComponent infix, std::span<const AddrId> delegates,
                     std::shared_ptr<const InterestSummary> interests,
                     std::uint64_t process_count, std::uint64_t version,
                     bool alive);

  /// Room for `rows` rows holding `delegates` delegate ids in all, so a
  /// table filled at once (a GroupTree leaf) sizes each column once.
  void reserve(std::size_t rows, std::size_t delegates);

  /// Bumped on every upsert that took effect. Lets callers cache derived
  /// state — recompaction skips depths whose inputs did not change since
  /// the last pass.
  std::uint64_t mutations() const noexcept { return mutations_; }

  /// Total length of all rows' delegate lists.
  std::size_t delegate_count() const noexcept { return live_delegates_; }

  /// Number of live rows.
  std::size_t live_count() const noexcept;

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
  std::vector<AddrId> id_scratch_;     ///< decoded-row interning buffer
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

  /// The d tables of `self`, which must be this view's own process: depth
  /// i at index i-1, as PmcastNode and TreecastNode take them.
  std::vector<const DepthView*> tables_for(const Address& self) const;

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
