// Hierarchical process addresses (paper Sec. 2.2, Eq. 1).
//
// An address is a sequence x(1). ... .x(d) with 0 <= x(i) < a_i. Addresses
// can mirror network addresses (IP, inverted DNS) or be purely logical. The
// longest common prefix of two addresses determines their "distance"
// d - i + 1 and thereby the depth of the smallest subgroup containing both.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/contract.hpp"

namespace pmc {

using AddrComponent = std::uint16_t;

class Prefix;

class Address {
 public:
  Address() = default;
  explicit Address(std::vector<AddrComponent> components)
      : comps_(std::move(components)) {}

  /// Parses "128.178.73.3"-style dotted notation.
  static Address parse(const std::string& text);

  std::size_t depth() const noexcept { return comps_.size(); }
  AddrComponent component(std::size_t i) const {
    PMC_EXPECTS(i < comps_.size());
    return comps_[i];
  }
  const std::vector<AddrComponent>& components() const noexcept {
    return comps_;
  }

  /// Prefix of the first `len` components (len in [0, depth()]).
  Prefix prefix(std::size_t len) const;

  /// Length of the longest common prefix with another address.
  std::size_t common_prefix_length(const Address& o) const noexcept;

  /// Paper distance: d - i + 1 where i-1 is the longest shared prefix length
  /// (two identical addresses have distance 0). Precondition: same depth.
  std::size_t distance(const Address& o) const;

  std::string to_string() const;

  friend bool operator==(const Address&, const Address&) = default;
  friend std::strong_ordering operator<=>(const Address& a, const Address& b) {
    return std::lexicographical_compare_three_way(
        a.comps_.begin(), a.comps_.end(), b.comps_.begin(), b.comps_.end());
  }

 private:
  std::vector<AddrComponent> comps_;
};

/// A partial address x(1). ... .x(i-1) denoting a subgroup (Sec. 2.2).
/// The empty prefix denotes the whole group.
class Prefix {
 public:
  Prefix() = default;
  explicit Prefix(std::vector<AddrComponent> components)
      : comps_(std::move(components)) {}

  static Prefix root() { return Prefix{}; }

  std::size_t length() const noexcept { return comps_.size(); }
  AddrComponent component(std::size_t i) const {
    PMC_EXPECTS(i < comps_.size());
    return comps_[i];
  }
  const std::vector<AddrComponent>& components() const noexcept {
    return comps_;
  }

  /// Child prefix with one more component appended.
  Prefix child(AddrComponent next) const;
  /// Parent prefix; precondition: length() > 0.
  Prefix parent() const;
  /// The last component; precondition: length() > 0.
  AddrComponent infix() const {
    PMC_EXPECTS(!comps_.empty());
    return comps_.back();
  }

  bool contains(const Address& a) const noexcept;
  bool contains(const Prefix& p) const noexcept;

  std::string to_string() const;

  friend bool operator==(const Prefix&, const Prefix&) = default;
  friend std::strong_ordering operator<=>(const Prefix& a, const Prefix& b) {
    return std::lexicographical_compare_three_way(
        a.comps_.begin(), a.comps_.end(), b.comps_.begin(), b.comps_.end());
  }

 private:
  std::vector<AddrComponent> comps_;
};

struct AddressHash {
  std::size_t operator()(const Address& a) const noexcept;
};
struct PrefixHash {
  std::size_t operator()(const Prefix& p) const noexcept;
};

}  // namespace pmc
