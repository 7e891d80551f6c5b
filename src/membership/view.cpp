#include "membership/view.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

namespace pmc {

std::pair<std::size_t, bool> DepthView::locate(
    AddrComponent infix) const noexcept {
  const auto it = std::lower_bound(infix_.begin(), infix_.end(), infix);
  return {static_cast<std::size_t>(it - infix_.begin()),
          it != infix_.end() && *it == infix};
}

std::size_t DepthView::find_index(AddrComponent infix) const noexcept {
  const auto [i, found] = locate(infix);
  return found ? i : npos;
}

bool DepthView::upsert(const ViewRow& row, const RowBatch& batch) {
  PMC_EXPECTS(row.interests != nullptr);
  PMC_EXPECTS(batch.interns == nullptr || batch.interns == interns_);
  // Version first: anti-entropy re-sends rows the receiver already holds
  // far more often than it sends news, and the version alone rejects them.
  const auto [i, found] = locate(row.infix);
  if (found && row.version <= version_[i]) return false;
  if (batch.interns != nullptr) {
    place(i, found, row.infix, batch.delegates(row), row.interests,
          row.process_count, row.version, row.alive);
    return true;
  }
  auto& in = interns();
  id_scratch_.clear();
  for (const AddrId d : batch.delegates(row))
    id_scratch_.push_back(in.addrs.intern(batch.address(d)));
  place(i, found, row.infix, id_scratch_, in.summaries.intern(row.interests),
        row.process_count, row.version, row.alive);
  return true;
}

bool DepthView::upsert_pooled(AddrComponent infix,
                              std::span<const AddrId> delegates,
                              std::shared_ptr<const InterestSummary> interests,
                              std::uint64_t process_count,
                              std::uint64_t version, bool alive) {
  const auto [i, found] = locate(infix);
  if (found && version <= version_[i]) return false;
  place(i, found, infix, delegates, std::move(interests), process_count,
        version, alive);
  return true;
}

void DepthView::reserve(std::size_t rows, std::size_t delegates) {
  infix_.reserve(rows);
  version_.reserve(rows);
  count_.reserve(rows);
  alive_.reserve(rows);
  interests_.reserve(rows);
  del_begin_.reserve(rows);
  del_len_.reserve(rows);
  del_pool_.reserve(delegates);
}

void DepthView::place(std::size_t i, bool found, AddrComponent infix,
                      std::span<const AddrId> delegates,
                      std::shared_ptr<const InterestSummary> interests,
                      std::uint64_t process_count, std::uint64_t version,
                      bool alive) {
  if (found) {
    live_delegates_ -= del_len_[i];
  } else {
    const auto at = static_cast<std::ptrdiff_t>(i);
    infix_.insert(infix_.begin() + at, infix);
    version_.insert(version_.begin() + at, 0);
    count_.insert(count_.begin() + at, 0);
    alive_.insert(alive_.begin() + at, 1);
    interests_.insert(interests_.begin() + at, nullptr);
    del_begin_.insert(del_begin_.begin() + at, 0);
    del_len_.insert(del_len_.begin() + at, 0);
  }
  set_delegates(i, delegates);
  interests_[i] = std::move(interests);
  count_[i] = process_count;
  version_[i] = version;
  alive_[i] = alive ? 1 : 0;
  ++mutations_;
}

void DepthView::set_delegates(std::size_t i, std::span<const AddrId> ids) {
  // The new list may alias this view's own pool (a caller forwarding
  // delegates(j)); detach it before the pool reallocates or compacts.
  // detlint:allow(pointer-hash) aliasing check within one allocation; ordering never observable
  const std::less<const AddrId*> lt;
  if (!ids.empty() && !lt(ids.data(), del_pool_.data()) &&
      lt(ids.data(), del_pool_.data() + del_pool_.size())) {
    alias_scratch_.assign(ids.begin(), ids.end());
    ids = alias_scratch_;
  }
  // Reuse the row's slice when the new list fits (the common case: the
  // redundancy R is fixed), else append to the pool and reclaim once the
  // garbage outweighs the live entries.
  if (ids.size() > del_len_[i]) {
    del_begin_[i] = static_cast<std::uint32_t>(del_pool_.size());
    del_pool_.resize(del_pool_.size() + ids.size());
  }
  del_len_[i] = static_cast<std::uint32_t>(ids.size());
  std::copy(ids.begin(), ids.end(),
            del_pool_.begin() + del_begin_[i]);
  live_delegates_ += ids.size();
  if (del_pool_.size() > 2 * live_delegates_ + 64) compact_pool();
}

void DepthView::compact_pool() {
  std::vector<AddrId> packed;
  packed.reserve(live_delegates_);
  for (std::size_t i = 0; i < infix_.size(); ++i) {
    const auto begin = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), del_pool_.begin() + del_begin_[i],
                  del_pool_.begin() + del_begin_[i] + del_len_[i]);
    del_begin_[i] = begin;
  }
  del_pool_ = std::move(packed);
}

std::size_t DepthView::live_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), std::uint8_t{1}));
}

std::string DepthView::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < infix_.size(); ++i) {
    os << "  " << infix_[i] << (alive_[i] ? "" : " (gone)") << " | "
       << interests_[i]->to_string() << " | count=" << count_[i] << " |";
    for (const AddrId id : delegates(i))
      os << " " << interns().addrs.resolve(id).to_string();
    os << "\n";
  }
  return os.str();
}

ViewRow& RowBatch::append(std::uint32_t depth, ViewRow row,
                          std::span<const AddrId> ids) {
  row.delegates_begin = static_cast<std::uint32_t>(pool.size());
  row.delegates_len = static_cast<std::uint32_t>(ids.size());
  pool.insert(pool.end(), ids.begin(), ids.end());
  return rows.emplace_back(DepthRow{depth, std::move(row)}).row;
}

ViewRow& RowBatch::append(std::uint32_t depth, const DepthView& dv,
                          std::size_t i) {
  PMC_EXPECTS(interns == &dv.interns());
  PMC_EXPECTS(i < dv.size());
  ViewRow row;
  row.infix = dv.infix(i);
  row.interests = dv.interests_ptr(i);
  row.process_count = dv.process_count(i);
  row.version = dv.version(i);
  row.alive = dv.alive(i);
  return append(depth, std::move(row), dv.delegates(i));
}

MembershipView::MembershipView(Address self, TreeConfig config,
                               Interns& interns)
    : self_(std::move(self)), config_(config), interns_(&interns) {
  config_.validate();
  PMC_EXPECTS(self_.depth() == config_.depth);
  self_id_ = interns_->addrs.intern(self_);
  depths_.resize(config_.depth);
  for (auto& dv : depths_) dv.bind(*interns_);
}

DepthView& MembershipView::view(std::size_t depth) {
  PMC_EXPECTS(depth >= 1 && depth <= depths_.size());
  return depths_[depth - 1];
}

const DepthView& MembershipView::view(std::size_t depth) const {
  PMC_EXPECTS(depth >= 1 && depth <= depths_.size());
  return depths_[depth - 1];
}

std::vector<const DepthView*> MembershipView::tables_for(
    const Address& self) const {
  PMC_EXPECTS(self == self_);
  std::vector<const DepthView*> tables;
  tables.reserve(depths_.size());
  for (const DepthView& dv : depths_) tables.push_back(&dv);
  return tables;
}

std::size_t MembershipView::known_processes() const noexcept {
  std::size_t n = 0;
  for (const auto& dv : depths_) {
    for (std::size_t i = 0; i < dv.size(); ++i)
      if (dv.alive(i)) n += dv.delegates(i).size();
  }
  return n;
}

std::string MembershipView::to_string() const {
  std::ostringstream os;
  os << "MembershipView(" << self_.to_string() << ")\n";
  for (std::size_t depth = 1; depth <= depths_.size(); ++depth) {
    os << " depth " << depth << ":\n" << depths_[depth - 1].to_string();
  }
  return os.str();
}

}  // namespace pmc
