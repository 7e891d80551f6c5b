// Fixed-size worker pool for embarrassingly parallel job batches.
//
// ShardedSim::run_until needs exactly one primitive: "run fn(s) for every
// shard s, on up to T threads, and do not return until all of them
// finished". WorkerPool provides that and nothing more — each lane owns a
// fixed contiguous stripe of the index range, so a given job index lands
// on the same lane batch after batch (ShardedSim calls run() once per
// run_until: sticky stripes keep each shard's allocations and cache lines
// on one thread instead of migrating every call, which is worth far more
// than work stealing for thousands of near-uniform shards). run() is a
// full barrier: every write a job made happens-before run() returning
// (the pool's mutex/condition-variable handshake publishes it).
//
// Determinism contract: the pool never decides *what* runs, only *where*.
// Callers must hand it jobs that share no mutable state (ShardedSim's
// shards each own their Runtime, Network, Interns, and RNG streams), in
// which case the result is bitwise independent of the thread count and of
// which worker ran which job. A pool constructed with threads == 1 spawns
// no workers at all: run() executes the jobs inline on the caller, in
// index order — the serial reference every multi-threaded run must match.
//
// Exceptions: a job that throws poisons the batch; run() rethrows the
// first exception on the calling thread after the batch drains (remaining
// jobs still run — shards must stay in lockstep even when one fails).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pmc {

class WorkerPool {
 public:
  using JobFn = std::function<void(std::size_t)>;

  /// A pool of `threads` execution lanes: the calling thread plus
  /// threads - 1 spawned workers (threads == 1 spawns nothing).
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Execution lanes, counting the caller.
  std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  /// Runs fn(0) .. fn(jobs - 1), distributing indices over the lanes;
  /// blocks until every job completed. Serial (single-lane) pools run the
  /// jobs inline in index order.
  void run(std::size_t jobs, const JobFn& fn);

  /// Lane count for a request: `requested` as given, 0 = one lane per
  /// hardware core; never more lanes than jobs (extra threads would only
  /// idle at the barrier).
  static std::size_t resolve_threads(std::size_t requested,
                                     std::size_t jobs);

 private:
  void worker_loop(std::size_t lane);
  /// Runs `lane`'s contiguous stripe of [0, jobs): stripes differ in size
  /// by at most one and cover the range exactly.
  void drain(std::size_t lane, const JobFn& fn, std::size_t jobs);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;  // batch_ advanced or stop_
  std::condition_variable done_cv_;   // running_ reached zero
  std::uint64_t batch_ = 0;           // generation workers wait on
  const JobFn* fn_ = nullptr;         // valid for the current batch only
  std::size_t jobs_ = 0;
  std::size_t running_ = 0;  // workers still inside the current batch
  bool stop_ = false;
  std::exception_ptr error_;  // first job exception of the batch
};

}  // namespace pmc
