#include "addr/intern.hpp"

#include <algorithm>

namespace pmc {

void AddrInternTable::reserve(std::size_t addresses, std::size_t depth) {
  recs_.reserve(addresses);
  comps_.reserve(addresses * depth);
  keys_.reserve(addresses * depth);
  addresses_.reserve(addresses);
  // Every non-leaf trie level is at most as populated as the leaf level, so
  // 2n buckets cover the whole trie for a balanced tree.
  trie_.reserve(addresses * 2);
  id_of_key_.reserve(addresses * 2);
}

AddrId AddrInternTable::intern(const Address& a) {
  const auto& comps = a.components();
  PMC_EXPECTS(!comps.empty());

  // Walk/extend the prefix trie, collecting the key of every prefix.
  const std::size_t key_begin = keys_.size();
  PrefixKey parent = 0;
  bool created = false;
  for (const AddrComponent c : comps) {
    const auto [it, inserted] = trie_.try_emplace(edge(parent, c), next_key_);
    if (inserted) {
      ++next_key_;
      id_of_key_.push_back(kNoAddr);
      created = true;
    }
    parent = it->second;
    keys_.push_back(parent);
  }

  if (!created && id_of_key_[parent - 1] != kNoAddr) {
    keys_.resize(key_begin);  // already interned; discard the scratch keys
    return id_of_key_[parent - 1];
  }

  const AddrId id = static_cast<AddrId>(recs_.size());
  id_of_key_[parent - 1] = id;
  recs_.push_back({static_cast<std::uint32_t>(comps_.size()),
                   static_cast<std::uint32_t>(key_begin),
                   static_cast<std::uint32_t>(comps.size())});
  comps_.insert(comps_.end(), comps.begin(), comps.end());
  addresses_.push_back(a);
  return id;
}

AddrId AddrInternTable::find(std::span<const AddrComponent> comps) const {
  PrefixKey parent = 0;
  for (const AddrComponent c : comps) {
    const auto it = trie_.find(edge(parent, c));
    if (it == trie_.end()) return kNoAddr;
    parent = it->second;
  }
  return parent == 0 ? kNoAddr : id_of_key_[parent - 1];
}

std::size_t AddrInternTable::common_prefix_length(AddrId a, AddrId b) const {
  PMC_EXPECTS(a < recs_.size() && b < recs_.size());
  const Rec& ra = recs_[a];
  const Rec& rb = recs_[b];
  const std::size_t n = std::min<std::size_t>(ra.depth, rb.depth);
  std::size_t i = 0;
  while (i < n && keys_[ra.key_begin + i] == keys_[rb.key_begin + i]) ++i;
  return i;
}

std::size_t AddrInternTable::distance(AddrId a, AddrId b) const {
  PMC_EXPECTS(depth(a) == depth(b));
  return depth(a) - common_prefix_length(a, b);
}

bool AddrInternTable::less(AddrId a, AddrId b) const {
  const auto ca = components(a);
  const auto cb = components(b);
  return std::lexicographical_compare(ca.begin(), ca.end(), cb.begin(),
                                      cb.end());
}

}  // namespace pmc
