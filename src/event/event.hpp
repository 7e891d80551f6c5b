// Events carry a small set of named, typed attributes. Attribute lookup is
// by name over a flat sorted vector: events in this domain have a handful of
// attributes (Fig. 2 uses four), where a flat array beats a map in both
// space and lookup time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "event/value.hpp"

namespace pmc {

/// Monotonically assigned per-publisher event identifier; combined with the
/// publisher id it uniquely names an event group-wide.
struct EventId {
  std::uint64_t publisher = 0;
  std::uint64_t sequence = 0;

  friend bool operator==(const EventId&, const EventId&) = default;
  friend auto operator<=>(const EventId&, const EventId&) = default;
};

class Event {
 public:
  Event() = default;
  explicit Event(EventId id) : id_(id) {}

  const EventId& id() const noexcept { return id_; }

  /// Sets (or replaces) an attribute. Returns *this for fluent building:
  ///   Event e; e.with("b", 2).with("c", 41.5).with("e", "Bob");
  Event& with(std::string name, Value value);

  /// nullopt when the attribute is absent.
  std::optional<Value> get(std::string_view name) const;

  std::size_t size() const noexcept { return attrs_.size(); }
  bool empty() const noexcept { return attrs_.empty(); }

  struct Attribute {
    std::string name;
    Value value;
  };
  const std::vector<Attribute>& attributes() const noexcept { return attrs_; }

  std::string to_string() const;

 private:
  EventId id_;
  std::vector<Attribute> attrs_;  // sorted by name
};

struct EventIdHash {
  std::size_t operator()(const EventId& id) const noexcept {
    // splitmix-style mix of the two words.
    std::uint64_t z = id.publisher * 0x9e3779b97f4a7c15ULL + id.sequence;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

}  // namespace pmc
