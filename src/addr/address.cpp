#include "addr/address.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"

namespace pmc {

namespace {

std::size_t hash_components(std::span<const AddrComponent> comps) noexcept {
  std::uint64_t h = kFnv1aBasis;
  for (const auto c : comps) h = fnv1a_u64(h, c);
  return static_cast<std::size_t>(h);
}

std::string join_components(std::span<const AddrComponent> comps) {
  std::ostringstream os;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    if (i) os << '.';
    os << comps[i];
  }
  return os.str();
}

}  // namespace

Address Address::parse(const std::string& text) {
  std::vector<AddrComponent> comps;
  const char* p = text.data();
  const char* end = text.data() + text.size();
  while (p < end) {
    unsigned v = 0;
    const auto res = std::from_chars(p, end, v);
    if (res.ec != std::errc{} || v > 0xffff)
      throw std::invalid_argument("bad address component in '" + text + "'");
    comps.push_back(static_cast<AddrComponent>(v));
    p = res.ptr;
    if (p < end) {
      if (*p != '.')
        throw std::invalid_argument("expected '.' in address '" + text + "'");
      ++p;
      if (p == end)
        throw std::invalid_argument("trailing '.' in address '" + text + "'");
    }
  }
  if (comps.empty()) throw std::invalid_argument("empty address");
  return Address(std::move(comps));
}

Prefix Address::prefix(std::size_t len) const {
  PMC_EXPECTS(len <= comps_.size());
  return Prefix(std::vector<AddrComponent>(comps_.begin(),
                                           comps_.begin() + static_cast<std::ptrdiff_t>(len)));
}

std::size_t Address::common_prefix_length(const Address& o) const noexcept {
  const std::size_t n = std::min(comps_.size(), o.comps_.size());
  std::size_t i = 0;
  while (i < n && comps_[i] == o.comps_[i]) ++i;
  return i;
}

std::size_t Address::distance(const Address& o) const {
  PMC_EXPECTS(depth() == o.depth());
  return depth() - common_prefix_length(o);
}

std::string Address::to_string() const { return join_components(comps_); }

Prefix Prefix::child(AddrComponent next) const {
  std::vector<AddrComponent> comps = comps_;
  comps.push_back(next);
  return Prefix(std::move(comps));
}

Prefix Prefix::parent() const {
  PMC_EXPECTS(!comps_.empty());
  return Prefix(std::vector<AddrComponent>(comps_.begin(), comps_.end() - 1));
}

bool Prefix::contains(const Address& a) const noexcept {
  if (comps_.size() > a.depth()) return false;
  for (std::size_t i = 0; i < comps_.size(); ++i)
    if (comps_[i] != a.component(i)) return false;
  return true;
}

bool Prefix::contains(const Prefix& p) const noexcept {
  if (comps_.size() > p.length()) return false;
  for (std::size_t i = 0; i < comps_.size(); ++i)
    if (comps_[i] != p.component(i)) return false;
  return true;
}

std::string Prefix::to_string() const {
  return comps_.empty() ? "<root>" : join_components(comps_);
}

std::size_t AddressHash::operator()(const Address& a) const noexcept {
  return hash_components(a.components());
}

std::size_t PrefixHash::operator()(const Prefix& p) const noexcept {
  return hash_components(p.components());
}

}  // namespace pmc
