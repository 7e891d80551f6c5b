// pmbench — times the simulator's public harness calls on one named
// workload and prints the raw samples as one JSON object on stdout.
//
//   pmbench --workload NAME --seed S [--seconds X] [--smoke] [--trace FILE]
//
// Every workload is a fixed amount of simulated work run to a fixed sim
// horizon. One rep builds the deployment (construction + play: a set-up
// sample), then calls run_until once per gossip period (the step samples).
// Reps repeat until the next one would overrun --seconds (at least three, so
// the fingerprint can be compared across reps); a batch of set-up-only
// samples precedes each. fig_static instead times calls to
// run_pmcast_experiment, 25 per rep.
//
// With --trace, one more rep runs after the timed ones with a transcoder on
// every runtime's network that counts and times the wire codec per MsgKind;
// its spans are written to FILE as JSON lines. The transcoder returns the
// message it was given (or, where the workload already transcodes, the same
// decode(encode(m)) round trip), so the traced rep must keep the untraced
// fingerprint. The benchmark/run.py runner reduces the samples to metrics
// and checks them.
#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.hpp"
#include "harness/experiment.hpp"
#include "harness/shard.hpp"
#include "harness/workload.hpp"
#include "wire/messages.hpp"

namespace {

using namespace pmc;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// getrusage high-water mark of this process (ru_maxrss is in KiB on Linux).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return mb(static_cast<std::uint64_t>(usage.ru_maxrss) * 1024);
}

/// Resident set right now, from /proc/self/statm (0 where unavailable).
double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return mb(resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)));
}

/// Returns the heap's free pages to the system, so every set-up sample
/// starts from the same allocator state. Without it a set-up that reuses
/// pages the previous deployment freed runs ~40% faster than one that
/// faults in fresh pages, and the samples split into two modes.
void reset_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Minimal JSON writer: the output is read by run.py, not by people.
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    out_ << v;
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    out_ << '"' << v << '"';
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  Json& nums(const std::vector<double>& vs) {
    open('[');
    for (const double v : vs) num(v);
    return close(']');
  }
  std::string text() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------------------
// Wire tap: the traced transcoder's per-runtime counters.
// ---------------------------------------------------------------------------

constexpr std::size_t kKinds = 15;  // MsgKind::Other .. MsgKind::Treecast
constexpr std::array<const char*, kKinds> kKindNames = {
    "Other",        "Gossip",        "MembershipDigest", "MembershipUpdate",
    "JoinRequest",  "ViewTransfer",  "Leave",            "FloodGossip",
    "GenuineGossip", "SuspectQuery", "SuspectReply",     "EventDigest",
    "EventRequest", "EventPayload",  "Treecast"};

/// One runtime's codec ledger. Each shard's transcoder writes only its own
/// tap, from whichever lane runs that shard; the driving thread reads the
/// taps between run_until calls, after the worker pool's barrier. Aligned
/// so neighbouring shards on different lanes never share a cache line.
struct alignas(64) WireTap {
  std::array<std::uint64_t, kKinds> payloads{};
  std::array<std::uint64_t, kKinds> bytes{};
  std::uint64_t encode_ns = 0;
  std::uint64_t decode_ns = 0;

  WireTap& operator+=(const WireTap& o) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      payloads[k] += o.payloads[k];
      bytes[k] += o.bytes[k];
    }
    encode_ns += o.encode_ns;
    decode_ns += o.decode_ns;
    return *this;
  }
  std::uint64_t busy_ns() const { return encode_ns + decode_ns; }
  std::uint64_t total_payloads() const {
    std::uint64_t n = 0;
    for (const auto p : payloads) n += p;
    return n;
  }
};

/// Counts and times encode_message for every payload (once per fan-out);
/// with `transcode`, also decodes and returns the round-tripped message,
/// exactly as ChurnConfig::wire_transcode does.
Network::Transcoder make_tap(WireTap& tap, bool transcode) {
  return [&tap, transcode](const MessagePtr& msg) -> MessagePtr {
    const auto t0 = Clock::now();
    const auto bytes = wire::encode_message(*msg);
    const auto t1 = Clock::now();
    const auto k = static_cast<std::size_t>(msg->kind);
    ++tap.payloads[k];
    tap.bytes[k] += bytes.size();
    tap.encode_ns += static_cast<std::uint64_t>(ns_between(t0, t1));
    if (!transcode) return msg;
    MessagePtr decoded = wire::decode_message(bytes);
    tap.decode_ns += static_cast<std::uint64_t>(ns_between(t1, Clock::now()));
    return decoded;
  };
}

// ---------------------------------------------------------------------------
// Spans of the traced rep, kept in memory and written out at exit.
// ---------------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<std::string, std::uint64_t>> attrs;
};

/// All spans of one traced rep; they share one trace id, derived from the
/// workload and seed.
class Trace {
 public:
  Trace(std::string workload, std::uint64_t seed, Clock::time_point origin)
      : workload_(std::move(workload)), origin_(origin) {
    trace_id_ = fnv1a_u64(kFnv1aBasis, seed);
    for (const char c : workload_)
      trace_id_ = fnv1a_byte(trace_id_, static_cast<std::uint8_t>(c));
  }

  std::uint64_t open(const std::string& name, std::uint64_t parent = 0) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.start_ns = ns_between(origin_, Clock::now());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  Span& close(std::uint64_t id) {
    Span& s = spans_[id - 1];
    s.end_ns = ns_between(origin_, Clock::now());
    return s;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open trace file " + path);
    for (const auto& s : spans_) {
      Json j;
      j.open('{').key("workload").str(workload_);
      j.key("trace_id").str(hex(trace_id_)).key("span_id").num(s.id);
      j.key("parent_id").num(s.parent).key("name").str(s.name);
      j.key("start_ns").num(static_cast<std::uint64_t>(s.start_ns));
      j.key("dur_ns").num(static_cast<std::uint64_t>(s.end_ns - s.start_ns));
      j.key("attrs").open('{');
      for (const auto& [k, v] : s.attrs) j.key(k).num(v);
      j.close('}').close('}');
      out << j.text() << '\n';
    }
    if (!out.good()) throw std::runtime_error("write failed: " + path);
  }

 private:
  std::string workload_;
  std::uint64_t trace_id_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The run digest a rep is checked against (identical for every rep, for
/// the traced rep, and across thread counts).
struct Counters {
  std::uint64_t fingerprint = 0;
  std::uint64_t published = 0;
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t skipped = 0;
  std::uint64_t events = 0;
  std::uint64_t tombstones = 0;
  std::uint64_t joins_served = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t shed_events = 0;
  std::uint64_t bound_collapsed = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t latency_total_us = 0;
  std::uint64_t latency_max_us = 0;
  NetworkCounters net;

  friend bool operator==(const Counters&, const Counters&) = default;

  void add_group(const GroupSummary& g) {
    published += g.counters.published;
    expected += g.counters.expected_deliveries;
    delivered += g.counters.delivered;
    skipped += g.counters.skipped;
    tombstones += g.membership_tombstones;
    joins_served += g.joins_served;
    dup_suppressed += g.dup_suppressed;
    shed_events += g.shed_events;
    bound_collapsed += g.bound_collapsed;
    latency_samples += g.latency_samples;
    latency_total_us += static_cast<std::uint64_t>(g.latency_total);
    latency_max_us =
        std::max(latency_max_us, static_cast<std::uint64_t>(g.latency_max));
  }
  void add_net(const NetworkCounters& n) {
    net.sent += n.sent;
    net.delivered += n.delivered;
    net.lost += n.lost;
    net.filtered += n.filtered;
    net.dead_target += n.dead_target;
    net.duplicated += n.duplicated;
    net.reordered += n.reordered;
  }
};

/// A dynamic-group deployment driven step by step: one ChurnSim, or a
/// ShardedSim of many.
struct LoopSpec {
  bool sharded = false;
  ChurnConfig group;
  std::size_t shards = 0;
  std::size_t threads = 1;
  std::string script;
  SimTime horizon = 0;

  std::size_t process_slots() const {
    return 2 * group.capacity() * (sharded ? shards : 1);
  }
  /// Publishes the script asks for in one rep, over all shards.
  std::size_t scripted_publishes() const {
    std::size_t n = 0;
    const ScenarioScript parsed = ScenarioScript::parse(script);
    for (const auto& action : parsed.actions())
      if (const auto* burst = std::get_if<PublishBurst>(&action.op))
        n += burst->count;
    return n * (sharded ? shards : 1);
  }
};

/// Uniform face over the two deployments so one rep loop drives both.
class Deployment {
 public:
  explicit Deployment(const LoopSpec& spec) {
    if (spec.sharded) {
      ShardedConfig cfg;
      cfg.shards = spec.shards;
      cfg.shard = spec.group;
      cfg.threads = spec.threads;
      sharded_ = std::make_unique<ShardedSim>(cfg);
    } else {
      group_ = std::make_unique<ChurnSim>(spec.group);
    }
  }

  void play(const ScenarioScript& script) {
    if (sharded_) {
      sharded_->play_all(script);
    } else {
      group_->play(script);
    }
  }
  void run_until(SimTime t) {
    if (sharded_) {
      sharded_->run_until(t);
    } else {
      group_->run_until(t);
    }
  }
  std::size_t runtime_count() const {
    return sharded_ ? sharded_->shard_count() : 1;
  }
  Runtime& runtime(std::size_t i) {
    return sharded_ ? sharded_->shard_runtime(i) : group_->runtime();
  }

  Counters counters() {
    Counters c;
    if (sharded_) {
      const ShardedSummary s = sharded_->summary();
      for (const auto& g : s.shards) c.add_group(g);
      c.fingerprint = s.fingerprint;
      c.events = s.scheduler_executed;
    } else {
      const ChurnSummary s = group_->summary();
      c.add_group(group_->group_summary());
      c.fingerprint = s.fingerprint;
      c.events = s.scheduler_executed;
    }
    for (std::size_t i = 0; i < runtime_count(); ++i)
      c.add_net(runtime(i).network().counters());
    return c;
  }

 private:
  std::unique_ptr<ChurnSim> group_;
  std::unique_ptr<ShardedSim> sharded_;
};

struct Rep {
  double construct_s = 0;
  double play_s = 0;
  double run_s = 0;
  std::vector<double> steps_ms;
  double rss_setup_mb = 0;
  double rss_peak_mb = 0;  ///< process high-water mark after the run
  Counters counters;
  WireTap wire;  ///< traced rep only
};

/// One rep: set up, then step through the horizon one gossip period at a
/// time. With `trace`, taps every runtime's network and records spans.
Rep run_loop_rep(const LoopSpec& spec, Trace* trace) {
  Rep rep;
  const ScenarioScript script = ScenarioScript::parse(spec.script);
  // Declared before the deployment, whose transcoders refer to them.
  std::vector<WireTap> taps(trace ? (spec.sharded ? spec.shards : 1) : 0);
  const std::uint64_t setup_span = trace ? trace->open("harness.setup") : 0;
  std::uint64_t span = trace ? trace->open("harness.construct", setup_span) : 0;
  reset_heap();
  const auto t0 = Clock::now();
  Deployment dep(spec);
  const auto t1 = Clock::now();
  if (trace) {
    trace->close(span);
    span = trace->open("harness.play", setup_span);
  }
  dep.play(script);
  const auto t2 = Clock::now();
  if (trace) {
    trace->close(span);
    trace->close(setup_span);
  }
  rep.construct_s = seconds_between(t0, t1);
  rep.play_s = seconds_between(t1, t2);
  rep.rss_setup_mb = current_rss_mb();

  for (std::size_t i = 0; i < taps.size(); ++i)
    dep.runtime(i).network().set_transcoder(
        make_tap(taps[i], spec.group.wire_transcode));

  const std::uint64_t run_span = trace ? trace->open("harness.run") : 0;
  WireTap before;
  const auto run_start = Clock::now();
  for (SimTime t = spec.group.period; t <= spec.horizon;
       t += spec.group.period) {
    const std::uint64_t step_span =
        trace ? trace->open("sim.step", run_span) : 0;
    const auto s0 = Clock::now();
    dep.run_until(t);
    const auto s1 = Clock::now();
    rep.steps_ms.push_back(seconds_between(s0, s1) * 1e3);
    if (trace) {
      WireTap now;
      for (const auto& tap : taps) now += tap;
      Span& s = trace->close(step_span);
      const std::uint64_t busy = now.busy_ns() - before.busy_ns();
      const auto dur = static_cast<std::uint64_t>(s.end_ns - s.start_ns);
      s.attrs.emplace_back("sim_time_us", static_cast<std::uint64_t>(t));
      s.attrs.emplace_back("payloads",
                           now.total_payloads() - before.total_payloads());
      if (spec.threads > 1) {
        // Lanes overlap in wall time, so summed codec time is CPU time and
        // cannot be subtracted from the step's wall duration.
        s.attrs.emplace_back("wire_cpu_ns", busy);
      } else {
        s.attrs.emplace_back("wire_busy_ns", busy);
        s.attrs.emplace_back("self_ns", dur > busy ? dur - busy : 0);
      }
      before = now;
    }
  }
  rep.run_s = seconds_between(run_start, Clock::now());
  if (trace) trace->close(run_span);
  rep.rss_peak_mb = peak_rss_mb();
  rep.counters = dep.counters();
  rep.wire = before;
  return rep;
}

/// Set-up only (construct + play): the extra set-up samples.
double run_setup_only(const LoopSpec& spec) {
  const ScenarioScript script = ScenarioScript::parse(spec.script);
  reset_heap();
  const auto t0 = Clock::now();
  Deployment dep(spec);
  dep.play(script);
  return seconds_between(t0, Clock::now());
}

/// fig_static: `calls` runs of run_pmcast_experiment (runs = 1, seed S+i).
struct FigSpec {
  ExperimentConfig config;
  std::size_t calls = 25;
};

struct FigRep {
  double run_s = 0;
  std::vector<double> steps_ms;
  double delivery_sum = 0;
  double msgs_per_proc_sum = 0;
  double rounds_sum = 0;
  double false_reception_sum = 0;
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;
  std::uint64_t fingerprint = kFnv1aBasis;
  double rss_peak_mb = 0;
};

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  static_assert(sizeof b == sizeof v);
  std::memcpy(&b, &v, sizeof b);
  return b;
}

FigRep run_fig_rep(const FigSpec& spec, std::uint64_t seed, Trace* trace) {
  FigRep rep;
  const auto n = static_cast<double>(spec.config.group_size());
  const std::uint64_t run_span = trace ? trace->open("harness.run") : 0;
  const auto run_start = Clock::now();
  for (std::size_t i = 0; i < spec.calls; ++i) {
    ExperimentConfig cfg = spec.config;
    cfg.seed = seed + i;
    const std::uint64_t span =
        trace ? trace->open("harness.experiment", run_span) : 0;
    const auto s0 = Clock::now();
    const ExperimentResult r = run_pmcast_experiment(cfg);
    rep.steps_ms.push_back(seconds_between(s0, Clock::now()) * 1e3);
    // runs = 1, so every mean is the single run's ratio of integers; the
    // counts are recovered exactly by rounding.
    const double interested = std::round(r.interested_fraction.mean() * n);
    const double delivered = std::round(r.delivery.mean() * interested);
    const double sent = std::round(r.messages_per_process.mean() * n);
    rep.delivery_sum += r.delivery.mean();
    rep.msgs_per_proc_sum += r.messages_per_process.mean();
    rep.rounds_sum += r.rounds.mean();
    rep.false_reception_sum += r.false_reception.mean();
    rep.expected += static_cast<std::uint64_t>(interested);
    rep.delivered += static_cast<std::uint64_t>(delivered);
    rep.sent += static_cast<std::uint64_t>(sent);
    for (const double v : {r.delivery.mean(), r.false_reception.mean(),
                           r.rounds.mean(), r.messages_per_process.mean(),
                           r.interested_fraction.mean()})
      rep.fingerprint = fnv1a_u64(rep.fingerprint, bits(v));
    if (trace) {
      Span& s = trace->close(span);
      s.attrs.emplace_back("seed", cfg.seed);
      s.attrs.emplace_back("sent", static_cast<std::uint64_t>(sent));
    }
  }
  rep.run_s = seconds_between(run_start, Clock::now());
  if (trace) trace->close(run_span);
  rep.rss_peak_mb = peak_rss_mb();
  return rep;
}

/// fig_static's set-up sample: the population and static GroupTree build
/// every run_pmcast_experiment call starts with, made through the same
/// public functions (the call itself cannot be split from outside).
double run_fig_setup(const FigSpec& spec, std::uint64_t seed,
                     double* rss_mb) {
  reset_heap();
  const auto t0 = Clock::now();
  Rng rng(seed);
  const auto space = AddressSpace::regular(
      static_cast<AddrComponent>(spec.config.a), spec.config.d);
  auto members = uniform_interest_members(space, spec.config.pd, rng);
  Interns interns;
  interns.reserve(members.size(), spec.config.d);
  TreeConfig tc;
  tc.depth = spec.config.d;
  tc.redundancy = spec.config.r;
  const GroupTree tree(tc, std::move(members), interns);
  const double s = seconds_between(t0, Clock::now());
  if (rss_mb) *rss_mb = current_rss_mb();
  return s;
}

// ---------------------------------------------------------------------------
// Workload table
// ---------------------------------------------------------------------------

ChurnConfig base_group(std::size_t a, std::size_t d, std::uint64_t seed) {
  ChurnConfig c;
  c.a = a;
  c.d = d;
  c.r = 2;
  c.pd = 0.5;
  c.initial_fill = 0.8;
  c.loss = 0.02;
  c.seed = seed;
  return c;
}

constexpr const char* kGroupScript =
    "at 300ms publish 8 every 40ms\n"
    "at 1s publish 8 every 40ms\n";

constexpr const char* kShardScript =
    "at 300ms publish 4 every 40ms\n"
    "at 1s publish 4 every 40ms\n";

constexpr const char* kChurnScript =
    "at 200ms joinstorm 40 over 400ms\n"
    "at 300ms publish 10 every 30ms\n"
    "at 700ms crash 30\n"
    "at 900ms partition 0,1 heal 1800ms\n"
    "at 1s publish 10 every 30ms\n"
    "at 1200ms loss 0.3 for 400ms\n"
    "at 2s recover 20\n"
    "at 2200ms duplicate 0.3 for 600ms\n"
    "at 2300ms publish 10 every 30ms\n"
    "at 2600ms leave 10\n"
    "at 3s publish 10 every 30ms\n";

LoopSpec group16(std::uint64_t seed, bool smoke) {
  LoopSpec s;
  s.group = base_group(smoke ? 6 : 16, 3, seed);
  s.script = kGroupScript;
  s.horizon = sim_sec(2);
  return s;
}

LoopSpec shards1k(std::uint64_t seed, bool smoke, std::size_t threads) {
  LoopSpec s;
  s.sharded = true;
  s.group = base_group(4, 2, seed);
  s.shards = smoke ? 32 : 1000;
  s.threads = threads;
  s.script = kShardScript;
  s.horizon = sim_sec(2);
  return s;
}

LoopSpec churn_wire(std::uint64_t seed, bool smoke) {
  LoopSpec s;
  s.group = base_group(smoke ? 6 : 10, 3, seed);
  s.group.initial_fill = 0.7;
  s.group.wire_transcode = true;
  s.group.join_backoff = true;
  s.group.max_retained = 256;
  s.script = kChurnScript;
  s.horizon = sim_sec(4);
  return s;
}

FigSpec fig_static(bool smoke) {
  FigSpec f;
  f.config.a = smoke ? 8 : 22;
  f.config.d = 3;
  f.config.r = 3;
  f.config.fanout = 2;
  f.config.pd = 0.1;
  f.config.loss = 0.05;
  f.config.runs = 1;
  f.calls = smoke ? 5 : 25;
  return f;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 2027;
  double seconds = 10.0;
  bool smoke = false;
  std::string trace_path;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace_path = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// Three, so the fastest-rep estimates have a choice even on group16,
/// whose 7.5 s rep leaves room for only two in the budget.
constexpr std::size_t kMinReps = 3;
/// Share of the budget spent on each batch of set-up-only samples. Set-up
/// is short next to a rep, so its median needs many more samples than the
/// reps give; one batch runs before every rep, so the samples spread over
/// the run as the reps do.
constexpr double kSetupBatchShare = 0.02;

template <typename F>
void setup_batch(double budget_s, std::vector<double>& out, F&& sample) {
  const auto t0 = Clock::now();
  do {
    out.push_back(sample());
  } while (seconds_between(t0, Clock::now()) < kSetupBatchShare * budget_s);
}

/// Repeats `rep()` until the next one would overrun the budget that began
/// at `start`; returns how many ran (at least kMinReps).
template <typename F>
std::size_t repeat_within(Clock::time_point start, double budget_s, F&& rep) {
  std::size_t n = 0;
  double longest = 0;
  for (;;) {
    const auto t0 = Clock::now();
    rep();
    ++n;
    const auto t1 = Clock::now();
    longest = std::max(longest, seconds_between(t0, t1));
    if (n >= kMinReps && seconds_between(start, t1) + longest > budget_s)
      return n;
  }
}

void write_counters(Json& j, const Counters& c) {
  j.key("counters").open('{');
  j.key("fingerprint").str(hex(c.fingerprint));
  j.key("published").num(c.published).key("expected").num(c.expected);
  j.key("delivered").num(c.delivered).key("skipped").num(c.skipped);
  j.key("events").num(c.events).key("tombstones").num(c.tombstones);
  j.key("joins_served").num(c.joins_served);
  j.key("dup_suppressed").num(c.dup_suppressed);
  j.key("shed_events").num(c.shed_events);
  j.key("bound_collapsed").num(c.bound_collapsed);
  j.key("latency_samples").num(c.latency_samples);
  j.key("latency_total_us").num(c.latency_total_us);
  j.key("latency_max_us").num(c.latency_max_us);
  j.key("net").open('{');
  j.key("sent").num(c.net.sent).key("delivered").num(c.net.delivered);
  j.key("lost").num(c.net.lost).key("filtered").num(c.net.filtered);
  j.key("dead_target").num(c.net.dead_target);
  j.key("duplicated").num(c.net.duplicated);
  j.key("reordered").num(c.net.reordered);
  j.close('}').close('}');
}

void write_wire(Json& j, const WireTap& w) {
  j.key("wire").open('{');
  j.key("encode_s").num(static_cast<double>(w.encode_ns) * 1e-9);
  j.key("decode_s").num(static_cast<double>(w.decode_ns) * 1e-9);
  j.key("payloads").open('{');
  for (std::size_t k = 0; k < kKinds; ++k)
    if (w.payloads[k] > 0) j.key(kKindNames[k]).num(w.payloads[k]);
  j.close('}').key("bytes").open('{');
  for (std::size_t k = 0; k < kKinds; ++k)
    if (w.payloads[k] > 0) j.key(kKindNames[k]).num(w.bytes[k]);
  j.close('}').close('}');
}

void write_reps(Json& j, const std::vector<double>& run_s,
                const std::vector<std::vector<double>>& steps) {
  j.key("run_s").nums(run_s);
  j.key("steps_ms").open('[');
  for (const auto& s : steps) j.nums(s);
  j.close(']');
}

std::string run_loop_workload(const Options& o, const LoopSpec& spec) {
  Json j;
  j.open('{').key("workload").str(o.workload).key("seed").num(o.seed);
  j.key("threads").num(static_cast<std::uint64_t>(spec.threads));
  j.key("process_slots").num(static_cast<std::uint64_t>(spec.process_slots()));
  j.key("scripted_publishes")
      .num(static_cast<std::uint64_t>(spec.scripted_publishes()));

  const auto start = Clock::now();
  std::vector<double> setup_s, construct_s, play_s, run_s;
  std::vector<std::vector<double>> steps;
  std::vector<Counters> counters;
  Rep first;
  repeat_within(start, o.seconds, [&] {
    setup_batch(o.seconds, setup_s, [&] { return run_setup_only(spec); });
    Rep rep = run_loop_rep(spec, nullptr);
    setup_s.push_back(rep.construct_s + rep.play_s);
    construct_s.push_back(rep.construct_s);
    play_s.push_back(rep.play_s);
    run_s.push_back(rep.run_s);
    steps.push_back(std::move(rep.steps_ms));
    counters.push_back(rep.counters);
    if (counters.size() == 1) first = std::move(rep);
  });
  j.key("setup_s").nums(setup_s).key("construct_s").nums(construct_s);
  j.key("play_s").nums(play_s);
  write_reps(j, run_s, steps);
  j.key("rss_setup_mb").num(first.rss_setup_mb);
  j.key("rss_run_growth_mb").num(first.rss_peak_mb - first.rss_setup_mb);
  j.key("reps_identical")
      .boolean(std::all_of(counters.begin(), counters.end(),
                           [&](const Counters& c) { return c == counters[0]; }));
  write_counters(j, counters[0]);
  j.key("peak_rss_mb").num(peak_rss_mb());

  if (spec.threads > 1) {
    // The serial engine is the reference every threaded run must match. It
    // runs after the peak RSS is read: the lanes' allocator arenas keep
    // their memory, so a serial rep before the timed ones would inflate
    // the threaded peak.
    LoopSpec serial = spec;
    serial.threads = 1;
    const Rep ref = run_loop_rep(serial, nullptr);
    j.key("reference").open('{');
    j.key("fingerprint").str(hex(ref.counters.fingerprint));
    j.key("equal").boolean(ref.counters == counters[0]);
    j.close('}');
  }

  if (!o.trace_path.empty()) {
    Trace trace(o.workload, o.seed, start);
    const Rep traced = run_loop_rep(spec, &trace);
    trace.write(o.trace_path);
    j.key("traced").open('{');
    j.key("run_s").num(traced.run_s);
    j.key("equal").boolean(traced.counters == counters[0]);
    j.key("fingerprint").str(hex(traced.counters.fingerprint));
    write_wire(j, traced.wire);
    j.close('}');
  }
  j.close('}');
  return j.text();
}

std::string run_fig_workload(const Options& o, const FigSpec& spec) {
  Json j;
  j.open('{').key("workload").str(o.workload).key("seed").num(o.seed);
  j.key("threads").num(std::uint64_t{1});
  j.key("process_slots").num(
      static_cast<std::uint64_t>(spec.config.group_size()));
  j.key("calls_per_rep").num(static_cast<std::uint64_t>(spec.calls));

  const auto start = Clock::now();
  std::vector<double> setup_s, run_s;
  std::vector<std::vector<double>> steps;
  std::vector<FigRep> reps;
  double rss_setup = 0;
  repeat_within(start, o.seconds, [&] {
    setup_batch(o.seconds, setup_s, [&] {
      return run_fig_setup(spec, o.seed,
                           setup_s.empty() ? &rss_setup : nullptr);
    });
    reps.push_back(run_fig_rep(spec, o.seed, nullptr));
    run_s.push_back(reps.back().run_s);
    steps.push_back(reps.back().steps_ms);
  });
  const FigRep& r = reps.front();
  const auto calls = static_cast<double>(spec.calls);
  j.key("setup_s").nums(setup_s);
  write_reps(j, run_s, steps);
  j.key("rss_setup_mb").num(rss_setup);
  j.key("rss_run_growth_mb").num(r.rss_peak_mb - rss_setup);
  j.key("reps_identical")
      .boolean(std::all_of(reps.begin(), reps.end(), [&](const FigRep& x) {
        return x.fingerprint == r.fingerprint;
      }));
  j.key("fig").open('{');
  j.key("delivery").num(r.delivery_sum / calls);
  j.key("msgs_per_proc").num(r.msgs_per_proc_sum / calls);
  j.key("rounds").num(r.rounds_sum / calls);
  j.key("false_reception").num(r.false_reception_sum / calls);
  j.close('}');
  j.key("counters").open('{');
  j.key("fingerprint").str(hex(r.fingerprint));
  j.key("expected").num(r.expected).key("delivered").num(r.delivered);
  j.key("net").open('{').key("sent").num(r.sent).close('}');
  j.close('}');
  j.key("peak_rss_mb").num(peak_rss_mb());

  if (!o.trace_path.empty()) {
    Trace trace(o.workload, o.seed, start);
    const FigRep traced = run_fig_rep(spec, o.seed, &trace);
    trace.write(o.trace_path);
    j.key("traced").open('{');
    j.key("run_s").num(traced.run_s);
    j.key("equal").boolean(traced.fingerprint == r.fingerprint);
    j.key("fingerprint").str(hex(traced.fingerprint));
    write_wire(j, WireTap{});
    j.close('}');
  }
  j.close('}');
  return j.text();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    std::string out;
    if (o.workload == "group16") {
      out = run_loop_workload(o, group16(o.seed, o.smoke));
    } else if (o.workload == "shards1k") {
      out = run_loop_workload(o, shards1k(o.seed, o.smoke, 1));
    } else if (o.workload == "shards1k_t2") {
      out = run_loop_workload(o, shards1k(o.seed, o.smoke, 2));
    } else if (o.workload == "churn_wire") {
      out = run_loop_workload(o, churn_wire(o.seed, o.smoke));
    } else if (o.workload == "fig_static") {
      out = run_fig_workload(o, fig_static(o.smoke));
    } else {
      throw std::invalid_argument("unknown workload " + o.workload);
    }
    std::cout << out << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pmbench: " << e.what() << '\n';
    return 1;
  }
}
