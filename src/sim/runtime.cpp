#include "sim/runtime.hpp"

#include "common/contract.hpp"
#include "common/hash.hpp"

namespace pmc {

namespace {
// Distinguishes process-incarnation stream labels from every other
// make_stream tag in the codebase (arbitrary salt).
constexpr std::uint64_t kProcessStreamSalt = 0x9c0ce55e5;
}  // namespace

Runtime::Runtime(NetworkConfig net_config, std::uint64_t seed,
                 std::uint32_t bucket_count_log2)
    : sched_(/*bucket_width_log2=*/6, bucket_count_log2),
      base_seed_(seed),
      seeder_(seed),
      net_(sched_, net_config, Rng(seeder_.next_u64())) {}

Rng Runtime::make_process_stream(ProcessId pid) {
  const std::uint64_t incarnation = incarnations_[pid]++;
  return make_stream(fnv1a_u64(
      fnv1a_u64(kFnv1aBasis ^ kProcessStreamSalt, pid), incarnation));
}

void Runtime::schedule_crashes(std::span<Process* const> victims,
                               SimTime horizon) {
  PMC_EXPECTS(horizon >= now());
  Rng rng = make_rng();
  const auto span = static_cast<std::uint64_t>(horizon - now());
  for (Process* p : victims) {
    PMC_EXPECTS(p != nullptr);
    const SimTime at =
        now() + (span > 0 ? static_cast<SimTime>(rng.next_below(span)) : 0);
    sched_.schedule_at(at, [p] {
      if (p->alive()) p->crash();
    });
  }
}

Process::Process(Runtime& rt, ProcessId id)
    : rt_(rt), id_(id), rng_(rt.make_process_stream(id)) {
  // Captureless thunk over `this`: receive dispatch is one indirect call,
  // no std::function boxing per process.
  rt_.network().attach(
      id_, this, [](void* ctx, ProcessId from, const MessagePtr& msg) {
        auto* self = static_cast<Process*>(ctx);
        if (self->alive_) self->on_message(from, msg);
      });
}

Process::~Process() {
  disarm_periodic();
  rt_.network().detach(id_);
}

void Process::crash() {
  if (!alive_) return;
  alive_ = false;
  disarm_periodic();
  rt_.network().detach(id_);
}

void Process::arm_periodic(SimTime period) {
  PMC_EXPECTS(period > 0);
  PMC_EXPECTS(alive_);
  period_ = period;
  if (!timer_armed_) {
    timer_armed_ = true;
    schedule_tick();
  }
}

void Process::disarm_periodic() {
  if (timer_armed_) {
    rt_.scheduler().cancel(timer_token_);
    timer_armed_ = false;
  }
}

void Process::schedule_tick() {
  // Align to global period boundaries: next tick at the smallest multiple of
  // period_ strictly after now.
  const SimTime now = rt_.now();
  const SimTime next = (now / period_ + 1) * period_;
  timer_token_ = rt_.scheduler().schedule_at(next, [this] {
    if (!timer_armed_ || !alive_) return;
    on_period();
    // on_period() may have disarmed (stop) or re-armed with a new period.
    if (timer_armed_ && alive_) schedule_tick();
  });
}

}  // namespace pmc
