#include "harness/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <type_traits>

#include "common/contract.hpp"
#include "common/hash.hpp"
#include "harness/workload.hpp"
#include "membership/tree.hpp"
#include "wire/messages.hpp"

namespace pmc {

template <class Op>
struct ScenarioVerb;  // one block per verb, below

template <class Op>
using VerbOf = ScenarioVerb<std::remove_cvref_t<Op>>;

namespace {

// Labeled RNG stream tags (arbitrary distinct salts).
constexpr std::uint64_t kFounderStream = 0xf0bdde55;
constexpr std::uint64_t kActionStreamSalt = 0xac710095;

constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();

/// Gossip periods per adaptive-estimator sampling window.
constexpr SimTime kEnvWindowPeriods = 4;

using RngPtr = std::shared_ptr<Rng>;

std::string format_time(SimTime t) {
  if (t != 0 && t % sim_sec(1) == 0)
    return std::to_string(t / sim_sec(1)) + "s";
  if (t != 0 && t % sim_ms(1) == 0)
    return std::to_string(t / sim_ms(1)) + "ms";
  return std::to_string(t) + "us";
}

/// Shortest representation that parses back to the same double, keeping
/// parse(to_string()) exact.
std::string format_double(double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

/// What a shared parser read from `token`, or the grammar's error for it.
template <class T>
T require(std::optional<T> parsed, const char* what,
          const std::string& token) {
  if (!parsed)
    throw std::invalid_argument(std::string("expected a ") + what +
                                ", got '" + token + "'");
  return *parsed;
}

std::vector<AddrComponent> parse_components(const std::string& token) {
  std::vector<AddrComponent> out;
  std::istringstream parts(token);
  for (std::string part; std::getline(parts, part, ',');) {
    const std::uint64_t c = require(parse_count(part), "count", part);
    if (c > std::numeric_limits<AddrComponent>::max())
      throw std::invalid_argument("address component out of range: '" +
                                  part + "'");
    out.push_back(static_cast<AddrComponent>(c));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fields. A verb lists its fields in text order, each as the grammar term
// it is written as (docs/SCENARIOS.md); the visitors below derive parsing,
// printing and range checks from that list, and trace replay its shift.
// ---------------------------------------------------------------------------

enum class Term {
  kCount,        ///< digits, >= 1
  kDuration,     ///< a time > 0
  kSpan,         ///< optional last time >= 0, left out of the text at 0
  kDeadline,     ///< absolute time after the action's; replay shifts it
  kProbability,  ///< float in [0, 1]
  kFraction,     ///< float in (0, 1)
  kSide,         ///< top-level components: non-empty, within the arity
  kPrefix,       ///< address prefix: non-empty, within the space
  kPath,         ///< a file name without whitespace or '#'
};

/// Visits `op`'s fields; a verb with its own text form declares none.
template <class F, class Op>
void visit_fields(F&& f, Op& op) {
  if constexpr (requires { VerbOf<Op>::fields(f, op); })
    VerbOf<Op>::fields(f, op);
}

/// Parses an action's fields from its line's tokens, left to right.
struct FieldReader {
  const std::vector<std::string>& tok;  ///< "at" <time> <verb> <fields>...
  std::size_t pos = 3;

  const std::string& next() {
    if (pos == tok.size())
      throw std::invalid_argument("missing argument for '" + tok[2] + "'");
    return tok[pos++];
  }

  template <class T>
  void operator()(Term term, T& value, const char* keyword = nullptr) {
    if (term == Term::kSpan && pos == tok.size()) return;  // left out
    if (keyword != nullptr && next() != keyword)
      throw std::invalid_argument(std::string("expected '") + keyword +
                                  "', got '" + tok[pos - 1] + "'");
    const std::string& token = next();
    if constexpr (std::is_same_v<T, std::size_t>) {
      value = require(parse_count(token), "count", token);
    } else if constexpr (std::is_same_v<T, SimTime>) {
      value = parse_sim_time(token);
    } else if constexpr (std::is_same_v<T, double>) {
      value = require(parse_real(token),
                      term == Term::kFraction ? "fraction" : "probability",
                      token);
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = token;
    } else {
      value = parse_components(token);
    }
  }
};

/// Appends each field, after its keyword, to a line of the text format.
struct FieldPrinter {
  std::ostream& out;

  template <class T>
  void operator()(Term term, const T& value,
                  const char* keyword = nullptr) const {
    if constexpr (std::is_same_v<T, SimTime>) {
      if (term == Term::kSpan && value <= 0) return;  // left out
    }
    out << ' ';
    if (keyword != nullptr) out << keyword << ' ';
    if constexpr (std::is_same_v<T, SimTime>) {
      out << format_time(value);
    } else if constexpr (std::is_same_v<T, double>) {
      out << format_double(value);
    } else if constexpr (std::is_same_v<T, std::vector<AddrComponent>>) {
      for (std::size_t i = 0; i < value.size(); ++i)
        out << (i ? "," : "") << value[i];
    } else {
      out << value;
    }
  }
};

/// The range check each term carries, given the action's time and, inside
/// an engine, its address space.
struct FieldCheck {
  SimTime at;
  const AddressSpace* space;

  void operator()(Term, std::size_t count, const char* = nullptr) const {
    PMC_EXPECTS(count >= 1);
  }
  void operator()(Term term, SimTime t, const char* = nullptr) const {
    if (term == Term::kDuration) PMC_EXPECTS(t > 0);
    if (term == Term::kSpan) PMC_EXPECTS(t >= 0);
    if (term == Term::kDeadline) PMC_EXPECTS(t > at);
  }
  void operator()(Term term, double p, const char* = nullptr) const {
    if (term == Term::kFraction) PMC_EXPECTS(p > 0.0 && p < 1.0);
    if (term == Term::kProbability) PMC_EXPECTS(p >= 0.0 && p <= 1.0);
  }
  void operator()(Term term, const std::vector<AddrComponent>& zone,
                  const char* = nullptr) const {
    PMC_EXPECTS(!zone.empty());
    // Inside an engine, a zone outside its address space would make the
    // fault a silent no-op; reject it instead.
    if (space == nullptr) return;
    if (term == Term::kPrefix) PMC_EXPECTS(zone.size() <= space->depth());
    for (std::size_t i = 0; i < zone.size(); ++i)
      PMC_EXPECTS(zone[i] < space->arity(term == Term::kSide ? 0 : i));
  }
  void operator()(Term, const std::string& path,
                  const char* = nullptr) const {
    // Only what the text format can round-trip; play() opens the file.
    PMC_EXPECTS(!path.empty());
    PMC_EXPECTS(path.find_first_of("# \t\n\v\f\r") == std::string::npos);
  }
};

/// A burst occupies [at, at + duration): it must end inside sim-time and
/// start no earlier than the previous burst of its kind ended (otherwise
/// that burst's restore would silently cut it short).
void claim_window(SimTime at, SimTime duration, SimTime& busy_until) {
  PMC_EXPECTS(duration <= kMaxTime - at);
  PMC_EXPECTS(at >= busy_until);
  busy_until = at + duration;
}

bool on_side(const std::vector<AddrComponent>& side, AddrComponent c) {
  return std::find(side.begin(), side.end(), c) != side.end();
}

}  // namespace

// ---------------------------------------------------------------------------
// Verbs: one block per ScenarioOp alternative. A block names the verb's
// keyword, lists its fields in text order (`fields`), adds the checks its
// field terms do not carry (`check`, optional), and applies the verb to a
// ChurnSim (`apply`). Effects several verbs share sit in ScenarioEffects.
// ---------------------------------------------------------------------------

struct ScenarioEffects {
  /// Validation state a verb's check() reads and updates.
  using Ledger = ScenarioScript::Ledger;

  /// Picks up to `count` distinct live slots uniformly; fewer if the group
  /// is smaller (the shortfall counts as skipped).
  static std::vector<std::size_t> pick_live(ChurnSim& sim, std::size_t count,
                                            Rng& rng) {
    const auto live = sim.live_slots();
    const std::size_t n = std::min(count, live.size());
    sim.counters_.skipped += count - n;
    std::vector<std::size_t> out;
    out.reserve(n);
    for (const auto i : rng.sample_without_replacement(live.size(), n))
      out.push_back(live[i]);
    return out;
  }

  /// Join-contact candidates: joined live slots (a real joiner would be
  /// pointed at an established member), else any live slot.
  static std::vector<std::size_t> contact_slots(const ChurnSim& sim) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < sim.slots_.size(); ++i)
      if (sim.slots_[i].live && sim.slots_[i].sync->joined()) out.push_back(i);
    return out.empty() ? sim.live_slots() : out;
  }

  /// A contact that crashed or left strands its pending joiners (they
  /// would retry a dead pid until their budget runs out): points every
  /// live, unjoined process at a fresh contact.
  static void retarget_pending_joiners(ChurnSim& sim, Rng& rng) {
    const auto contacts = contact_slots(sim);
    for (std::size_t i = 0; i < sim.slots_.size(); ++i) {
      if (!sim.slots_[i].live || sim.slots_[i].sync->joined()) continue;
      if (contacts.empty()) break;
      const std::size_t pick = contacts[rng.next_below(contacts.size())];
      if (pick == i) continue;  // nobody else to ask
      sim.slots_[i].sync->retarget_join(sim.sync_pid(pick));
    }
  }

  /// Fail-stops `victims`, who queue for recovery.
  static void crash(ChurnSim& sim, const std::vector<std::size_t>& victims,
                    Rng& rng) {
    for (const auto idx : victims) {
      auto& slot = sim.slots_[idx];
      slot.sync->crash();
      slot.pm->crash();
      slot.live = false;
      sim.crashed_pool_.push_back(idx);
      ++sim.counters_.crashes;
    }
    retarget_pending_joiners(sim, rng);
  }

  /// Spawns `slot` as a joiner through a random contact; counts a skip
  /// and returns false when there is none.
  static bool admit(ChurnSim& sim, std::size_t slot, Rng& rng) {
    const auto contacts = contact_slots(sim);
    if (contacts.empty()) {
      ++sim.counters_.skipped;
      return false;
    }
    const std::size_t contact = contacts[rng.next_below(contacts.size())];
    sim.spawn(slot, std::nullopt, sim.sync_pid(contact));
    ++sim.counters_.joins_requested;
    return true;
  }

  /// Runs `step` `count` times, `spacing` apart from now (the first one
  /// inline); the steps share the action's stream.
  static void repeat(ChurnSim& sim, std::size_t count, SimTime spacing,
                     const RngPtr& rng, void (*step)(ChurnSim&, Rng&)) {
    const SimTime start = sim.now();
    for (std::size_t k = 0; k < count; ++k) {
      const SimTime when = start + static_cast<SimTime>(k) * spacing;
      if (when <= start) {
        step(sim, *rng);
      } else {
        sim.rt_.scheduler().schedule_at(
            when, [&sim, rng, step] { step(sim, *rng); });
      }
    }
  }

  /// Drops this group's messages for which cut(top, from, to) holds, with
  /// top(pid) a process's top-level address component, until `heal_at`.
  /// Traffic of co-hosted groups (other shards) passes untouched.
  template <class Cut>
  static void cut_links(ChurnSim& sim, SimTime heal_at, Cut cut) {
    const ProcessId base = sim.pid_base_;
    const std::size_t capacity = sim.slots_.size();
    const auto top = [&sim, base, capacity](ProcessId pid) {
      const std::size_t offset = pid - base;
      const std::size_t slot = offset < capacity ? offset : offset - capacity;
      return sim.slots_[slot].address.component(0);
    };
    const auto in_range = [base, capacity](ProcessId pid) {
      return pid >= base && pid < base + 2 * capacity;
    };
    const auto token = sim.rt_.network().add_link_filter(
        [top, in_range, cut](ProcessId from, ProcessId to) {
          if (!in_range(from) || !in_range(to)) return true;
          return !cut(top, from, to);
        });
    sim.rt_.scheduler().schedule_at(heal_at, [&sim, token] {
      sim.rt_.network().remove_link_filter(token);
      ++sim.counters_.heals;
    });
  }

  /// Schedules a burst's `restore` after `duration`, unless a later burst
  /// has bumped `epoch` by then: for back-to-back bursts the scheduler runs
  /// the next burst's start (scheduled early, in play()) before this
  /// burst's same-time restore (FIFO tie-break), which must then not
  /// clobber the new value for its whole window.
  template <class Restore>
  static void restore_after(ChurnSim& sim, std::uint64_t& epoch,
                            SimTime duration, Restore restore) {
    sim.rt_.scheduler().schedule_after(
        duration, [&epoch, mine = ++epoch, restore] {
          if (mine == epoch) restore();
        });
  }
};

/// crash <count>: fail-stop crash of uniformly chosen live processes.
template <>
struct ScenarioVerb<CrashNodes> : ScenarioEffects {
  static constexpr const char* kKeyword = "crash";
  static void fields(auto&& f, auto& op) { f(Term::kCount, op.count); }
  static void check(const CrashNodes& op, SimTime, Ledger& l) {
    l.crash_credit += op.count;
  }
  static void apply(ChurnSim& sim, const CrashNodes& op, const RngPtr& rng) {
    crash(sim, pick_live(sim, op.count, *rng), *rng);
  }
};

/// recover <count>: the oldest crashed processes rejoin at their addresses.
template <>
struct ScenarioVerb<RecoverNodes> : ScenarioEffects {
  static constexpr const char* kKeyword = "recover";
  static void fields(auto&& f, auto& op) { f(Term::kCount, op.count); }
  static void check(const RecoverNodes& op, SimTime, Ledger& l) {
    PMC_EXPECTS(op.count <= l.crash_credit);  // recover-before-crash
    l.crash_credit -= op.count;
  }
  static void apply(ChurnSim& sim, const RecoverNodes& op, const RngPtr& rng) {
    auto& pool = sim.crashed_pool_;
    const std::size_t n = std::min(op.count, pool.size());
    sim.counters_.skipped += op.count - n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = pool.front();
      pool.erase(pool.begin());
      if (sim.slots_[idx].live) {
        ++sim.counters_.skipped;  // a join re-occupied the address
      } else if (admit(sim, idx, *rng)) {
        ++sim.counters_.recoveries;
      }
    }
  }
};

/// join <count>: fresh processes join at uniformly chosen vacant addresses.
template <>
struct ScenarioVerb<Join> : ScenarioEffects {
  static constexpr const char* kKeyword = "join";
  static void fields(auto&& f, auto& op) { f(Term::kCount, op.count); }
  static void apply(ChurnSim& sim, const Join& op, const RngPtr& rng) {
    auto vacant = sim.vacant_slots();
    const std::size_t n = std::min(op.count, vacant.size());
    sim.counters_.skipped += op.count - n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t pick = rng->next_below(vacant.size());
      const std::size_t slot = vacant[pick];
      vacant.erase(vacant.begin() + static_cast<std::ptrdiff_t>(pick));
      admit(sim, slot, *rng);
    }
  }
};

/// leave <count>: graceful departure of uniformly chosen live processes.
template <>
struct ScenarioVerb<Leave> : ScenarioEffects {
  static constexpr const char* kKeyword = "leave";
  static void fields(auto&& f, auto& op) { f(Term::kCount, op.count); }
  static void apply(ChurnSim& sim, const Leave& op, const RngPtr& rng) {
    for (const auto idx : pick_live(sim, op.count, *rng)) {
      auto& slot = sim.slots_[idx];
      slot.sync->leave();
      slot.pm->crash();
      slot.live = false;
      ++sim.counters_.leaves;
    }
    retarget_pending_joiners(sim, *rng);
  }
};

/// partition <side> heal <deadline>: the side and the rest cannot talk.
template <>
struct ScenarioVerb<Partition> : ScenarioEffects {
  static constexpr const char* kKeyword = "partition";
  static void fields(auto&& f, auto& op) {
    f(Term::kSide, op.side);
    f(Term::kDeadline, op.heal_at, "heal");
  }
  static void apply(ChurnSim& sim, const Partition& op, const RngPtr&) {
    cut_links(sim, op.heal_at,
              [side = op.side](const auto& top, ProcessId from, ProcessId to) {
                return on_side(side, top(from)) != on_side(side, top(to));
              });
    ++sim.counters_.partitions;
  }
};

/// loss <probability> for <duration>: raises ε, then restores the base ε.
template <>
struct ScenarioVerb<LossBurst> : ScenarioEffects {
  static constexpr const char* kKeyword = "loss";
  static void fields(auto&& f, auto& op) {
    f(Term::kProbability, op.eps);
    f(Term::kDuration, op.duration, "for");
  }
  static void check(const LossBurst& op, SimTime at, Ledger& l) {
    claim_window(at, op.duration, l.loss_busy_until);
  }
  static void apply(ChurnSim& sim, const LossBurst& op, const RngPtr&) {
    sim.rt_.network().set_loss(op.eps);
    ++sim.counters_.loss_bursts;
    restore_after(sim, sim.loss_epoch_, op.duration, [&sim] {
      sim.rt_.network().set_loss(sim.config_.loss);
      ++sim.counters_.loss_restores;
    });
  }
};

/// publish <count> [every <span>]: events from random live publishers.
template <>
struct ScenarioVerb<PublishBurst> : ScenarioEffects {
  static constexpr const char* kKeyword = "publish";
  static void fields(auto&& f, auto& op) {
    f(Term::kCount, op.count);
    f(Term::kSpan, op.spacing, "every");
  }
  static void check(const PublishBurst& op, SimTime at, Ledger&) {
    // The k-th publish fires at at + k * spacing: the whole spread must
    // stay representable.
    if (op.spacing == 0) return;
    const auto last = static_cast<std::uint64_t>(op.count - 1);
    PMC_EXPECTS(last <= static_cast<std::uint64_t>(kMaxTime / op.spacing));
    PMC_EXPECTS(at <= kMaxTime - static_cast<SimTime>(last) * op.spacing);
  }
  static void apply(ChurnSim& sim, const PublishBurst& op, const RngPtr& rng) {
    repeat(sim, op.count, op.spacing, rng, [](ChurnSim& s, Rng& r) {
      const auto live = s.live_slots();
      if (live.empty()) {
        ++s.counters_.skipped;
        return;
      }
      const std::size_t slot = live[r.next_below(live.size())];
      s.publish_from(slot,
                     make_uniform_event(s.pm_pid(slot), s.publish_seq_++, r));
    });
  }
};

/// latency lognormal <median> <sigma> | latency uniform: installs a WAN
/// latency profile clamped to [0, 16 * median], or removes it. Two text
/// forms, so this block parses and prints itself.
template <>
struct ScenarioVerb<LatencyProfile> : ScenarioEffects {
  static constexpr const char* kKeyword = "latency";
  static void parse(FieldReader& in, LatencyProfile& op) {
    const std::string& form = in.next();
    if (form == "lognormal") {
      op.median = parse_sim_time(in.next());
      const std::string& sigma = in.next();
      op.sigma = require(parse_real(sigma), "sigma", sigma);
    } else if (form != "uniform") {
      throw std::invalid_argument(
          "expected 'lognormal <median> <sigma>' or 'uniform'");
    }
  }
  static void print(std::ostream& out, const LatencyProfile& op) {
    if (op.median == 0) {
      out << " uniform";
    } else {
      out << " lognormal " << format_time(op.median) << ' '
          << format_double(op.sigma);
    }
  }
  static void check(const LatencyProfile& op, SimTime, Ledger&) {
    // The cap 16 * median is a reachable latency, so it must leave room
    // for the send time when the scheduler adds the two.
    PMC_EXPECTS(op.median >= 0 && op.median <= kMaxTime / 32);
    // Median 0 restores the uniform draw; sigma must be 0 there so every
    // script has exactly one canonical text form.
    PMC_EXPECTS(op.median == 0 ? op.sigma == 0.0
                               : op.sigma > 0.0 && op.sigma <= 4.0);
  }
  static void apply(ChurnSim& sim, const LatencyProfile& op, const RngPtr&) {
    sim.rt_.network().set_latency(
        op.median > 0 ? std::optional<LogNormalLatency>(LogNormalLatency{
                            op.median, op.sigma, 0, 16 * op.median})
                      : std::nullopt);
    ++sim.counters_.latency_profiles;
  }
};

/// asym <side> to <side> heal <deadline>: one-way cut, first side to second.
template <>
struct ScenarioVerb<AsymPartition> : ScenarioEffects {
  static constexpr const char* kKeyword = "asym";
  static void fields(auto&& f, auto& op) {
    f(Term::kSide, op.from_side);
    f(Term::kSide, op.to_side, "to");
    f(Term::kDeadline, op.heal_at, "heal");
  }
  static void apply(ChurnSim& sim, const AsymPartition& op, const RngPtr&) {
    cut_links(sim, op.heal_at,
              [from_side = op.from_side, to_side = op.to_side](
                  const auto& top, ProcessId from, ProcessId to) {
                return on_side(from_side, top(from)) &&
                       on_side(to_side, top(to));
              });
    ++sim.counters_.asym_partitions;
  }
};

/// flap <side> period <duration> duty <fraction> until <deadline>: the
/// side is cut off for the first duty share of every period.
template <>
struct ScenarioVerb<Flap> : ScenarioEffects {
  static constexpr const char* kKeyword = "flap";
  static void fields(auto&& f, auto& op) {
    f(Term::kSide, op.side);
    f(Term::kDuration, op.period, "period");
    f(Term::kFraction, op.duty, "duty");
    f(Term::kDeadline, op.until, "until");
  }
  static void apply(ChurnSim& sim, const Flap& op, const RngPtr&) {
    // The down window is a precomputed integer span (at least one tick),
    // so the filter runs pure integer arithmetic on the send time — no
    // float drift across the flap's lifetime.
    const SimTime down = std::max<SimTime>(
        1, static_cast<SimTime>(
               std::llround(op.duty * static_cast<double>(op.period))));
    cut_links(sim, op.until,
              [side = op.side, rt = &sim.rt_, start = sim.now(),
               period = op.period, down](const auto& top, ProcessId from,
                                         ProcessId to) {
                return on_side(side, top(from)) != on_side(side, top(to)) &&
                       (rt->now() - start) % period < down;
              });
    ++sim.counters_.flaps;
  }
};

/// rack <prefix>: every live process under the prefix fail-stops at once.
template <>
struct ScenarioVerb<RackFailure> : ScenarioEffects {
  static constexpr const char* kKeyword = "rack";
  static void fields(auto&& f, auto& op) { f(Term::kPrefix, op.prefix); }
  static void check(const RackFailure& op, SimTime, Ledger& l) {
    // The victim count is only known at fire time: credit the zone's whole
    // capacity, so a later recover can target it.
    if (l.space == nullptr) return;
    std::uint64_t zone = 1;
    for (std::size_t i = op.prefix.size(); i < l.space->depth(); ++i)
      zone *= l.space->arity(i);
    l.crash_credit += zone;
  }
  static void apply(ChurnSim& sim, const RackFailure& op, const RngPtr& rng) {
    // Correlated: the whole zone at once, no sampling, no draws.
    ++sim.counters_.rack_failures;
    std::vector<std::size_t> zone;
    for (std::size_t idx = 0; idx < sim.slots_.size(); ++idx) {
      const auto& slot = sim.slots_[idx];
      if (slot.live && std::equal(op.prefix.begin(), op.prefix.end(),
                                  slot.address.components().begin()))
        zone.push_back(idx);
    }
    crash(sim, zone, *rng);
  }
};

/// joinstorm <count> [over <span>]: joins spread evenly over the span.
template <>
struct ScenarioVerb<JoinStorm> : ScenarioEffects {
  static constexpr const char* kKeyword = "joinstorm";
  static void fields(auto&& f, auto& op) {
    f(Term::kCount, op.count);
    f(Term::kSpan, op.over, "over");
  }
  static void check(const JoinStorm& op, SimTime at, Ledger&) {
    PMC_EXPECTS(op.over <= kMaxTime - at);  // the last join's time
  }
  static void apply(ChurnSim& sim, const JoinStorm& op, const RngPtr& rng) {
    ++sim.counters_.join_storms;
    const SimTime spacing =
        op.count > 1 ? op.over / static_cast<SimTime>(op.count - 1) : 0;
    // Unlike the batched join, every arrival re-queries the vacancies: the
    // storm is spread over time, and earlier arrivals shrink the pool.
    repeat(sim, op.count, spacing, rng, [](ChurnSim& s, Rng& r) {
      const auto vacant = s.vacant_slots();
      if (vacant.empty()) {
        ++s.counters_.skipped;
        return;
      }
      admit(s, vacant[r.next_below(vacant.size())], r);
    });
  }
};

/// duplicate <probability> for <duration>: raises duplication, restores 0.
template <>
struct ScenarioVerb<DuplicateBurst> : ScenarioEffects {
  static constexpr const char* kKeyword = "duplicate";
  static void fields(auto&& f, auto& op) {
    f(Term::kProbability, op.prob);
    f(Term::kDuration, op.duration, "for");
  }
  static void check(const DuplicateBurst& op, SimTime at, Ledger& l) {
    claim_window(at, op.duration, l.dup_busy_until);
  }
  static void apply(ChurnSim& sim, const DuplicateBurst& op, const RngPtr&) {
    sim.rt_.network().set_duplication(op.prob);
    ++sim.counters_.dup_bursts;
    restore_after(sim, sim.dup_epoch_, op.duration, [&sim] {
      sim.rt_.network().set_duplication(0.0);
      ++sim.counters_.dup_restores;
    });
  }
};

/// replay <path>: splices a scenario file in, offset by the action's time.
/// It takes effect in play(), before validation: the file's actions join
/// the timeline as if written inline at their offset times.
template <>
struct ScenarioVerb<TraceReplay> : ScenarioEffects {
  static constexpr const char* kKeyword = "replay";
  static void fields(auto&& f, auto& op) { f(Term::kPath, op.path); }
  static void splice(const TraceReplay& op, SimTime at,
                     std::vector<ScenarioAction>& out) {
    const auto fail = [&](const std::string& why) {
      return std::invalid_argument("scenario trace '" + op.path + "': " +
                                   why);
    };
    const auto shifted = [&](SimTime t) {
      if (t > kMaxTime - at) throw fail("offset time out of range");
      return t + at;
    };
    std::ifstream in(op.path);
    if (!in) throw fail("cannot open");
    std::ostringstream text;
    text << in.rdbuf();
    ScenarioScript child;
    try {
      child = ScenarioScript::parse(text.str());
    } catch (const std::invalid_argument& e) {
      throw fail(e.what());
    }
    // The deadlines the child's ops carry are absolute times: they move
    // with the replay too.
    const auto shift = [&](Term term, auto& value, const char* = nullptr) {
      if constexpr (std::is_same_v<std::decay_t<decltype(value)>, SimTime>) {
        if (term == Term::kDeadline) value = shifted(value);
      }
    };
    for (const auto& sub : child.actions()) {
      if (std::holds_alternative<TraceReplay>(sub.op))
        throw fail("nested replay is not supported");
      ScenarioOp op = sub.op;
      std::visit([&](auto& o) { visit_fields(shift, o); }, op);
      out.push_back(ScenarioAction{shifted(sub.at), std::move(op)});
    }
  }
  static void apply(ChurnSim&, const TraceReplay&, const RngPtr&) {
    PMC_EXPECTS(false && "play() splices replays before scheduling");
  }
};

// ---------------------------------------------------------------------------
// Generic code over the verb blocks
// ---------------------------------------------------------------------------

namespace {

/// Parses the fields of the op whose keyword is `verb`.
template <std::size_t I = 0>
ScenarioOp parse_op(const std::string& verb, FieldReader& in) {
  if constexpr (I == std::variant_size_v<ScenarioOp>) {
    throw std::invalid_argument("unknown action '" + verb + "'");
  } else {
    using Op = std::variant_alternative_t<I, ScenarioOp>;
    if (verb != ScenarioVerb<Op>::kKeyword) return parse_op<I + 1>(verb, in);
    Op op;
    if constexpr (requires { ScenarioVerb<Op>::parse(in, op); }) {
      ScenarioVerb<Op>::parse(in, op);
    } else {
      visit_fields(in, op);
    }
    return op;
  }
}

AddressSpace make_space(const ChurnConfig& config) {
  config.validate();
  return AddressSpace::regular(static_cast<AddrComponent>(config.a),
                               config.d);
}

/// Splices in the timelines of actions that expand at play time (replay),
/// re-sorted stably so same-time actions keep script order. A script with
/// none comes back as it is; either way the result must pass validate().
ScenarioScript expand(const ScenarioScript& script) {
  std::vector<ScenarioAction> out;
  bool spliced = false;
  for (const auto& action : script.actions()) {
    std::visit(
        [&](const auto& op) {
          using Verb = VerbOf<decltype(op)>;
          if constexpr (requires { Verb::splice(op, action.at, out); }) {
            Verb::splice(op, action.at, out);
            spliced = true;
          } else {
            out.push_back(action);
          }
        },
        action.op);
  }
  if (!spliced) return script;
  std::stable_sort(
      out.begin(), out.end(),
      [](const ScenarioAction& a, const ScenarioAction& b) {
        return a.at < b.at;
      });
  ScenarioScript expanded;
  for (auto& a : out) expanded.add(a.at, std::move(a.op));
  return expanded;
}

}  // namespace

std::optional<std::uint64_t> parse_count(const std::string& token) {
  // from_chars takes no sign or blank for an unsigned type.
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_real(const std::string& token) {
  // from_chars takes no blank, no '+' and no hexadecimal form, and ignores
  // the locale; it does read "nan" and "inf".
  double value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value,
                                         std::chars_format::general);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value))
    return std::nullopt;
  return value;
}

SimTime parse_sim_time(const std::string& token) {
  const std::size_t digits =
      std::min(token.find_first_not_of("0123456789"), token.size());
  if (digits == 0)
    throw std::invalid_argument("expected a time, got '" + token + "'");
  const std::string unit = token.substr(digits);
  // Guard the unit multiplication too: sim_ms/sim_sec must not overflow.
  const std::int64_t scale =
      (unit == "ms") ? 1000 : (unit == "s") ? 1000 * 1000 : 1;
  const auto value = parse_count(token.substr(0, digits));
  if (!value || *value > static_cast<std::uint64_t>(
                             std::numeric_limits<SimTime>::max() / scale))
    throw std::invalid_argument("time out of range: '" + token + "'");
  const auto count = static_cast<std::int64_t>(*value);
  if (unit.empty() || unit == "us") return sim_us(count);
  if (unit == "ms") return sim_ms(count);
  if (unit == "s") return sim_sec(count);
  throw std::invalid_argument("unknown time unit '" + unit + "'");
}

// ---------------------------------------------------------------------------
// ScenarioScript
// ---------------------------------------------------------------------------

ScenarioScript& ScenarioScript::add(SimTime at, ScenarioOp op) {
  actions_.push_back(ScenarioAction{at, std::move(op)});
  return *this;
}

void ScenarioScript::validate() const { validate_from({}); }

ScenarioScript::Ledger ScenarioScript::validate_from(Ledger ledger) const {
  for (const auto& action : actions_) {
    PMC_EXPECTS(action.at >= ledger.not_before);  // sorted, none in the past
    ledger.not_before = action.at;
    std::visit(
        [&](const auto& op) {
          using Verb = VerbOf<decltype(op)>;
          visit_fields(FieldCheck{action.at, ledger.space}, op);
          if constexpr (requires { Verb::check(op, action.at, ledger); })
            Verb::check(op, action.at, ledger);
        },
        action.op);
  }
  return ledger;
}

ScenarioScript ScenarioScript::parse(const std::string& text) {
  ScenarioScript script;
  std::istringstream stream(text);
  std::string raw_line;
  for (std::size_t line_no = 1; std::getline(stream, raw_line); ++line_no) {
    raw_line.resize(std::min(raw_line.size(), raw_line.find('#')));
    std::istringstream line(raw_line);
    std::vector<std::string> tok;
    for (std::string t; line >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;
    try {
      if (tok[0] != "at" || tok.size() < 3)
        throw std::invalid_argument("expected 'at <time> <action> ...'");
      const SimTime at = parse_sim_time(tok[1]);
      FieldReader in{tok};
      script.add(at, parse_op(tok[2], in));
      // Anything left over means the line said more than the action can
      // express — reject it rather than silently dropping qualifiers.
      if (in.pos < tok.size())
        throw std::invalid_argument("unexpected trailing token '" +
                                    tok[in.pos] + "'");
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scenario line " + std::to_string(line_no) +
                                  ": " + e.what());
    }
  }
  return script;
}

ScenarioScript ScenarioScript::demo() {
  ScenarioScript s;
  s.add(sim_ms(200), Join{2});       // staggered joins...
  s.add(sim_ms(350), Join{2});       // ...in two waves
  s.add(sim_ms(600), PublishBurst{6, sim_ms(25)});
  s.add(sim_ms(900), CrashNodes{3});  // crash burst
  s.add(sim_ms(1000), Partition{{0, 1}, sim_ms(1800)});
  s.add(sim_ms(1200), LossBurst{0.35, sim_ms(400)});  // loss spike
  s.add(sim_ms(1400), PublishBurst{6, sim_ms(25)});
  s.add(sim_ms(2000), RecoverNodes{2});
  s.add(sim_ms(2300), Leave{1});
  s.add(sim_ms(2500), PublishBurst{4, sim_ms(50)});
  return s;
}

std::string ScenarioScript::to_string() const {
  std::ostringstream out;
  for (const auto& action : actions_) {
    out << "at " << format_time(action.at) << ' ';
    std::visit(
        [&](const auto& op) {
          using Verb = VerbOf<decltype(op)>;
          out << Verb::kKeyword;
          if constexpr (requires { Verb::print(out, op); }) {
            Verb::print(out, op);
          } else {
            visit_fields(FieldPrinter{out}, op);
          }
        },
        action.op);
    out << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// ChurnConfig
// ---------------------------------------------------------------------------

std::size_t ChurnConfig::capacity() const {
  // Saturating a^d, so a nonsense shape cannot wrap into a plausible size.
  std::size_t n = 1;
  for (std::size_t i = 0; i < d; ++i) {
    if (a != 0 && n > std::numeric_limits<std::size_t>::max() / a)
      return std::numeric_limits<std::size_t>::max();
    n *= a;
  }
  return n;
}

void ChurnConfig::validate() const {
  PMC_EXPECTS(a >= 1 && d >= 1 && r >= 1 && fanout >= 1);
  // Arities are AddrComponent-sized; a larger value would silently
  // truncate when the address space is built.
  PMC_EXPECTS(a <= std::numeric_limits<AddrComponent>::max());
  // The engine instantiates two protocol nodes per address up front;
  // beyond ~4M addresses the config is nonsense, not a workload.
  PMC_EXPECTS(capacity() <= (std::size_t{1} << 22));
  PMC_EXPECTS(pd >= 0.0 && pd <= 1.0);
  PMC_EXPECTS(initial_fill > 0.0 && initial_fill <= 1.0);
  PMC_EXPECTS(loss >= 0.0 && loss < 1.0);
  PMC_EXPECTS(period > 0);
  PMC_EXPECTS(suspicion_timeout > 0);
  PMC_EXPECTS(adaptive_alpha > 0.0 && adaptive_alpha <= 1.0);
  PMC_EXPECTS(capacity() >= 2);
}

// ---------------------------------------------------------------------------
// GroupSummary / ChurnSummary
// ---------------------------------------------------------------------------

namespace {

void append_group_fields(std::ostringstream& out, const GroupSummary& s) {
  const ChurnCounters& c = s.counters;
  out << "live " << s.live << " (joined " << s.joined << ")"
      << " | joins " << c.joins_requested << " (served " << s.joins_served
      << ")"
      << " | crashes " << c.crashes << " | leaves " << c.leaves
      << " | recoveries " << c.recoveries
      << " | partitions " << c.partitions << "/" << c.heals << " healed"
      << " | loss bursts " << c.loss_bursts
      << " | published " << c.published << " | delivered " << c.delivered;
  if (s.latency_samples > 0) {
    out << " | latency mean " << s.latency_mean_ms() << "ms max "
        << static_cast<double>(s.latency_max) /
               static_cast<double>(sim_ms(1)) << "ms";
  }
  if (s.env_windows > 0) {
    // ppm -> fractional display with no float round-tripping on the wire.
    out << " | env eps~" << static_cast<double>(s.env_loss_ppm) / 1e6
        << " tau~" << static_cast<double>(s.env_crash_ppm) / 1e6
        << " (" << s.env_windows << " windows)";
  }
  if (s.bound_collapsed > 0)
    out << " | bound collapsed " << s.bound_collapsed;
  if (s.dup_suppressed > 0) out << " | dup suppressed " << s.dup_suppressed;
  if (s.shed_events > 0) out << " | shed " << s.shed_events;
  out << " | tombstones " << s.membership_tombstones;
}

}  // namespace

double GroupSummary::latency_mean_ms() const {
  if (latency_samples == 0) return 0.0;
  return (static_cast<double>(latency_total) /
          static_cast<double>(latency_samples)) /
         static_cast<double>(sim_ms(1));
}

std::string GroupSummary::to_string() const {
  std::ostringstream out;
  append_group_fields(out, *this);
  out << " | fingerprint " << std::hex << fingerprint << std::dec;
  return out.str();
}

std::string ChurnSummary::to_string() const {
  std::ostringstream out;
  append_group_fields(out, *this);
  out << " | net sent " << network.sent << " lost " << network.lost
      << " filtered " << network.filtered
      << " | fingerprint " << std::hex << fingerprint << std::dec;
  return out.str();
}

// ---------------------------------------------------------------------------
// ChurnSim
// ---------------------------------------------------------------------------

ChurnSim::ChurnSim(ChurnConfig config, GroupPlacement placement)
    : config_(config),
      space_(make_space(config_)),
      rt_(NetworkConfig{config_.loss},
          placement.runtime_seed.value_or(config_.seed),
          placement.bucket_count_log2),
      pid_base_(placement.pid_base),
      stream_salt_(placement.stream_salt) {
  // Two protocol nodes per address: the network's tables hold exactly this
  // group's pid range and the intern arenas the whole address space, so a
  // full group never resizes them mid-run.
  rt_.network().reserve_range(pid_base_, 2 * config_.capacity());
  interns_.reserve(config_.capacity(), config_.d);
  if (config_.wire_transcode) {
    rt_.network().set_transcoder(
        [codec = std::make_shared<wire::Codec>(interns_)](
            const MessagePtr& msg) { return codec->transcode(msg); });
  }

  // Every address of the space owns a slot whose subscription depends only
  // on (seed, address), so churn never re-shuffles anyone else's interests.
  const auto addresses = space_.enumerate();
  slots_.reserve(addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    Slot slot;
    auto member = stable_member(addresses[i], config_.pd, config_.seed);
    slot.address = std::move(member.address);
    slot.subscription = std::move(member.subscription);
    const AddrId id = interns_.addrs.intern(slot.address);
    if (slot_of_id_.size() <= id) slot_of_id_.resize(id + 1, kNoSlot);
    slot_of_id_[id] = i;
    slots_.push_back(std::move(slot));
  }

  // Founders: a random subset of initial_fill * capacity addresses.
  const auto n = slots_.size();
  const auto founders = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(config_.initial_fill * static_cast<double>(n))));
  Rng founder_rng = stream(kFounderStream);
  auto picks = founder_rng.sample_without_replacement(
      n, std::min(founders, n));
  std::sort(picks.begin(), picks.end());

  std::vector<Member> members;
  members.reserve(picks.size());
  for (const auto i : picks)
    members.push_back(Member{slots_[i].address, slots_[i].subscription});
  TreeConfig tc;
  tc.depth = config_.d;
  tc.redundancy = config_.r;
  // The tree only bootstraps the founders: afterwards a process knows the
  // group through its own view tables, and the slots' live flags are the
  // harness's membership record.
  const GroupTree tree(tc, std::move(members), interns_);
  for (const auto i : picks)
    spawn(i, tree.materialize_view(slots_[i].address), kNoProcess);

  if (config_.adaptive) {
    rt_.scheduler().schedule_after(kEnvWindowPeriods * config_.period,
                                   [this] { sample_environment(); });
  }
}

ChurnSim::~ChurnSim() = default;

ProcessId ChurnSim::sync_pid(std::size_t slot) const noexcept {
  return pid_base_ + static_cast<ProcessId>(slot);
}

ProcessId ChurnSim::pm_pid(std::size_t slot) const noexcept {
  return pid_base_ + static_cast<ProcessId>(slots_.size() + slot);
}

Rng ChurnSim::stream(std::uint64_t tag) const {
  // Salt 0 (a standalone group) leaves the label untouched, so classic
  // runs keep their historical streams; a shard's well-mixed salt moves
  // every label into its own namespace.
  return rt_.make_stream(stream_salt_ ^ tag);
}

std::size_t ChurnSim::slot_for(AddrId id) const noexcept {
  return id < slot_of_id_.size() ? slot_of_id_[id] : kNoSlot;
}

Directory ChurnSim::sync_directory() {
  return [this](AddrId id) {
    const std::size_t slot = slot_for(id);
    return slot == kNoSlot ? kNoProcess : sync_pid(slot);
  };
}

Directory ChurnSim::pm_directory() {
  return [this](AddrId id) {
    const std::size_t slot = slot_for(id);
    return slot == kNoSlot ? kNoProcess : pm_pid(slot);
  };
}

void ChurnSim::spawn(std::size_t slot_idx,
                     std::optional<MembershipView> bootstrap,
                     ProcessId contact) {
  Slot& slot = slots_[slot_idx];
  // Destroy stale nodes first: a Process attaches its pid's network handler
  // in its constructor, so the old incarnation must detach before the new
  // one registers.
  slot.pm.reset();
  slot.sync.reset();
  // A fresh incarnation starts with zeroed protocol stats, so its
  // estimator and feedback cursor restart from scratch too.
  slot.estimator.reset();
  slot.env_cursor = EnvCursor{};

  SyncConfig sc;
  sc.tree.depth = config_.d;
  sc.tree.redundancy = config_.r;
  sc.gossip_period = config_.period;
  sc.gossip_fanout = config_.fanout;
  sc.suspicion_timeout = config_.suspicion_timeout;
  sc.confirm_suspicion = config_.confirm_suspicion;
  sc.ack_digests = config_.adaptive;  // digests double as loss probes
  sc.join_backoff = config_.join_backoff;

  if (bootstrap) {
    slot.sync = std::make_unique<SyncNode>(
        rt_, sync_pid(slot_idx), sc, std::move(*bootstrap), slot.subscription,
        sync_directory());
  } else {
    slot.sync = std::make_unique<SyncNode>(
        rt_, sync_pid(slot_idx), sc, slot.address, slot.subscription, contact,
        interns_, sync_directory());
  }

  PmcastConfig pc;
  pc.tree = sc.tree;
  pc.fanout = config_.fanout;
  pc.period = config_.period;
  pc.env.loss = config_.loss;
  pc.recovery_rounds = config_.recovery_rounds;
  pc.max_retained = config_.max_retained;
  pc.max_buffered = config_.max_buffered;
  slot.pm = std::make_unique<PmcastNode>(
      rt_, pm_pid(slot_idx), pc, slot.address, slot.subscription,
      slot.sync->view().tables_for(slot.address), pm_directory());
  if (config_.adaptive) {
    slot.estimator =
        std::make_unique<EnvEstimator>(pc.env, config_.adaptive_alpha);
    EnvEstimator* estimator = slot.estimator.get();
    slot.pm->set_env_source([estimator] { return estimator->estimate(); });
  }
  slot.pm->set_deliver_handler([this](const Event& e) {
    ++counters_.delivered;
    const auto it = publish_times_.find(e.id());
    if (it != publish_times_.end()) {
      const SimTime latency = rt_.now() - it->second;
      ++latency_samples_;
      latency_total_ += latency;
      latency_max_ = std::max(latency_max_, latency);
    }
  });
  SyncNode* sync = slot.sync.get();
  slot.pm->set_piggyback(
      [sync](AddrId target) { return sync->rows_to_share(target); },
      [sync](const AddrRef& sender, const RowBatch& rows) {
        sync->absorb_rows(sender, rows);
      });

  slot.live = true;
}

void ChurnSim::play(const ScenarioScript& script) {
  // Replays splice their file's timeline in first: everything below,
  // stream labels included, sees a replayed action exactly as if it were
  // written inline at its offset time.
  const ScenarioScript timeline = expand(script);

  // The same checks as a standalone validate(), continued from this run's
  // ledger (crash credit, burst windows, address space) and starting at
  // now(). The whole timeline is accepted before any state changes, so a
  // rejected script leaves no crash credit or scheduled action behind.
  ScenarioScript::Ledger ledger = ledger_;
  ledger.not_before = rt_.now();
  ledger_ = timeline.validate_from(ledger);

  // Stream labels: (time, kind, ordinal-within-time-and-kind), hashed with
  // the run seed. Ordinals persist across play() calls so appended
  // timelines never reuse a label. New ScenarioOp alternatives append at
  // the variant's end — the label hashes op.index().
  static_assert(std::variant_size_v<ScenarioOp> == 14);
  for (const auto& action : timeline.actions()) {
    const auto key = std::make_pair(action.at, action.op.index());
    const std::uint64_t ordinal = action_ordinals_[key]++;
    const std::uint64_t tag =
        fnv1a_u64(fnv1a_u64(fnv1a_u64(kFnv1aBasis ^ kActionStreamSalt,
                          static_cast<std::uint64_t>(action.at)),
                    action.op.index()),
              ordinal);
    auto rng = std::make_shared<Rng>(stream(tag));
    rt_.scheduler().schedule_at(action.at, [this, action, rng] {
      std::visit(
          [&](const auto& op) {
            VerbOf<decltype(op)>::apply(*this, op, rng);
          },
          action.op);
    });
  }
}

void ChurnSim::sample_environment() {
  for (auto& slot : slots_) {
    if (!slot.live || slot.estimator == nullptr || slot.sync == nullptr)
      continue;
    const auto& s = slot.sync->stats();
    slot.estimator->observe_feedback(
        s.digests_sent - slot.env_cursor.digests_sent,
        s.digest_acks - slot.env_cursor.digest_acks);
    slot.estimator->observe_churn(
        s.deaths_observed - slot.env_cursor.deaths_observed,
        slot.sync->view().known_processes());
    slot.env_cursor = EnvCursor{s.digests_sent, s.digest_acks,
                                s.deaths_observed};
  }
  rt_.scheduler().schedule_after(kEnvWindowPeriods * config_.period,
                                  [this] { sample_environment(); });
}

void ChurnSim::run_for(SimTime duration) { rt_.run_for(duration); }
void ChurnSim::run_until(SimTime deadline) { rt_.run_until(deadline); }
SimTime ChurnSim::now() const noexcept { return rt_.now(); }

std::vector<std::size_t> ChurnSim::live_slots() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].live) out.push_back(i);
  return out;
}

std::vector<std::size_t> ChurnSim::vacant_slots() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (!slots_[i].live) out.push_back(i);
  return out;
}

bool ChurnSim::publish_external(const EventId& id, double u, Rng& rng) {
  const auto live = live_slots();
  if (live.empty()) {
    ++counters_.skipped;
    return false;
  }
  const std::size_t slot = live[rng.next_below(live.size())];
  publish_from(slot, make_event_at(id.publisher, id.sequence, u));
  return true;
}

void ChurnSim::publish_from(std::size_t slot, Event e) {
  // Deliveries owed: every live matching process at publish time (pure
  // predicate evaluation, no draws — see ChurnCounters).
  for (const auto& s : slots_)
    if (s.live && s.subscription.match(e)) ++counters_.expected_deliveries;
  // Record before pmcast: the publisher may deliver to itself inline.
  publish_times_.emplace(e.id(), rt_.now());
  ++counters_.published;
  slots_[slot].pm->pmcast(std::move(e));
}

std::size_t ChurnSim::live_count() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : slots_)
    if (slot.live) ++n;
  return n;
}

std::size_t ChurnSim::joined_count() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : slots_)
    if (slot.live && slot.sync->joined()) ++n;
  return n;
}

GroupSummary ChurnSim::group_summary() const {
  GroupSummary out;
  out.counters = counters_;
  out.live = live_count();
  out.joined = joined_count();
  out.latency_samples = latency_samples_;
  out.latency_total = latency_total_;
  out.latency_max = latency_max_;

  std::uint64_t h = kFnv1aBasis;
  std::uint64_t env_nodes = 0;
  double env_loss_sum = 0.0, env_crash_sum = 0.0;
  for (const auto& slot : slots_) {
    h = fnv1a_u64(h, slot.live ? 1 : 0);
    if (slot.sync != nullptr) {
      const auto& s = slot.sync->stats();
      out.membership_tombstones += s.tombstones;
      out.joins_served += s.joins_served;
      h = fnv1a_u64(h, slot.sync->joined() ? 1 : 0);
      h = fnv1a_u64(h, s.digests_sent);
      h = fnv1a_u64(h, s.updates_sent);
      h = fnv1a_u64(h, s.digest_acks);
      h = fnv1a_u64(h, s.deaths_observed);
      h = fnv1a_u64(h, s.join_retries);
      h = fnv1a_u64(h, s.joins_forwarded);
      h = fnv1a_u64(h, s.joins_served);
      h = fnv1a_u64(h, s.tombstones);
      h = fnv1a_u64(h, s.rebuttals);
      h = fnv1a_u64(h, slot.sync->view().known_processes());
    }
    if (slot.pm != nullptr) {
      const auto& r = slot.pm->stats();
      const auto& p = slot.pm->gossip_stats();
      out.bound_collapsed += p.bound_collapsed;
      // Summed but NOT hashed: the fingerprint's field list is frozen
      // (docs/DETERMINISM.md §7) — new counters are compared by operator==.
      out.dup_suppressed += r.dup_suppressed;
      out.shed_events += p.shed_events;
      h = fnv1a_u64(h, p.published);
      h = fnv1a_u64(h, r.received);
      h = fnv1a_u64(h, r.delivered);
      h = fnv1a_u64(h, r.sent);
      h = fnv1a_u64(h, p.rounds_run);
      h = fnv1a_u64(h, p.bound_collapsed);
      h = fnv1a_u64(h, p.leaf_floods);
      h = fnv1a_u64(h, p.digests_sent);
      h = fnv1a_u64(h, p.recoveries);
    }
    if (slot.live && slot.estimator != nullptr) {
      const EnvParams e = slot.estimator->estimate();
      env_loss_sum += e.loss;
      env_crash_sum += e.crash;
      out.env_windows += slot.estimator->feedback_windows() +
                         slot.estimator->churn_windows();
      ++env_nodes;
    }
  }
  if (env_nodes > 0) {
    // Parts-per-million keeps the digest integral (byte-comparable across
    // replays without float formatting concerns).
    out.env_loss_ppm = static_cast<std::uint64_t>(
        std::llround(1e6 * env_loss_sum / static_cast<double>(env_nodes)));
    out.env_crash_ppm = static_cast<std::uint64_t>(
        std::llround(1e6 * env_crash_sum / static_cast<double>(env_nodes)));
  }
  h = fnv1a_u64(h, out.env_loss_ppm);
  h = fnv1a_u64(h, out.env_crash_ppm);
  h = fnv1a_u64(h, out.env_windows);
  h = fnv1a_u64(h, counters_.published);
  h = fnv1a_u64(h, counters_.delivered);
  h = fnv1a_u64(h, latency_samples_);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(latency_total_));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(latency_max_));
  out.fingerprint = h;
  return out;
}

std::uint64_t fingerprint_runtime(std::uint64_t h,
                                  const NetworkCounters& network,
                                  std::uint64_t scheduler_executed) {
  h = fnv1a_u64(h, network.sent);
  h = fnv1a_u64(h, network.delivered);
  h = fnv1a_u64(h, network.lost);
  h = fnv1a_u64(h, network.filtered);
  h = fnv1a_u64(h, network.dead_target);
  return fnv1a_u64(h, scheduler_executed);
}

ChurnSummary ChurnSim::summary() const {
  ChurnSummary out;
  static_cast<GroupSummary&>(out) = group_summary();
  out.network = rt_.network().counters();
  out.scheduler_executed = rt_.scheduler().executed();
  out.fingerprint = fingerprint_runtime(out.fingerprint, out.network,
                                        out.scheduler_executed);
  return out;
}

}  // namespace pmc
