#include "addr/intern.hpp"

#include <algorithm>

namespace pmc {

void AddrInternTable::reserve(std::size_t addresses, std::size_t depth) {
  recs_.reserve(addresses);
  comps_.reserve(addresses * depth);
  keys_.reserve(addresses * depth);
  addresses_.reserve(addresses);
  // Every non-leaf trie level is at most as populated as the leaf level, so
  // 2n nodes cover the whole trie for a balanced tree.
  nodes_.reserve(addresses * 2);
  trie_.reserve(addresses * 2,
                [this](std::uint32_t n) { return node_edge(n); });
}

PrefixKey AddrInternTable::child(PrefixKey parent, AddrComponent c) const {
  const std::uint32_t e = trie_.find(edge(parent, c), [&](std::uint32_t n) {
    return nodes_[n].parent == parent && nodes_[n].component == c;
  });
  return e == FlatIndex::npos ? 0 : e + 1;
}

AddrId AddrInternTable::intern(const Address& a) {
  const auto& comps = a.components();
  PMC_EXPECTS(!comps.empty());

  // Walk/extend the prefix trie, collecting the key of every prefix.
  const std::size_t key_begin = keys_.size();
  PrefixKey parent = 0;
  bool created = false;
  for (const AddrComponent c : comps) {
    PrefixKey key = child(parent, c);
    if (key == 0) {
      nodes_.push_back({parent, c, kNoAddr});
      key = trie_.add(edge(parent, c),
                      [this](std::uint32_t n) { return node_edge(n); }) +
            1;
      created = true;
    }
    parent = key;
    keys_.push_back(parent);
  }

  AddrId& id = nodes_[parent - 1].id;
  if (!created && id != kNoAddr) {
    keys_.resize(key_begin);  // already interned; discard the scratch keys
    return id;
  }

  id = static_cast<AddrId>(recs_.size());
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
    parent = child(parent, c);
    if (parent == 0) return kNoAddr;
  }
  return parent == 0 ? kNoAddr : nodes_[parent - 1].id;
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
