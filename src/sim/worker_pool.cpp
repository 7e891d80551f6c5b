#include "sim/worker_pool.hpp"

#include <algorithm>

namespace pmc {

WorkerPool::WorkerPool(std::size_t threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    // Worker i owns lane i; the caller drains the last lane.
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t WorkerPool::resolve_threads(std::size_t requested,
                                        std::size_t jobs) {
  std::size_t t = requested;
  if (t == 0) {
    t = std::thread::hardware_concurrency();
    if (t == 0) t = 1;
  }
  return std::max<std::size_t>(1, std::min(t, std::max<std::size_t>(jobs, 1)));
}

void WorkerPool::drain(std::size_t lane, const JobFn& fn,
                       std::size_t jobs) {
  // Lane stripes are a fixed function of (lane, lanes, jobs): the first
  // `jobs % lanes` lanes take one extra job. ShardedSim calls run() with
  // the same job count every time, so a given shard sticks to one thread
  // for the whole simulation — its event allocations are freed by the
  // thread that made them and its hot state stays in one core's cache.
  const std::size_t lanes = workers_.size() + 1;
  const std::size_t per = jobs / lanes;
  const std::size_t extra = jobs % lanes;
  const std::size_t begin = lane * per + std::min(lane, extra);
  const std::size_t end = begin + per + (lane < extra ? 1 : 0);
  // A throwing job must not starve the rest of the stripe (the batch
  // always drains); the first exception resurfaces once the stripe is
  // done and the caller's capture path takes it from there.
  std::exception_ptr err;
  for (std::size_t i = begin; i < end; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

void WorkerPool::run(std::size_t jobs, const JobFn& fn) {
  if (jobs == 0) return;
  if (workers_.empty()) {
    // Serial pool: lane 0's stripe is the whole range, executed inline in
    // index order — the reference order, with the same drain-then-rethrow
    // contract as the threaded path.
    drain(0, fn, jobs);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    jobs_ = jobs;
    running_ = workers_.size();
    error_ = nullptr;
    ++batch_;
  }
  start_cv_.notify_all();

  // The caller is a lane too (the last one); its exceptions go through the
  // same capture path so one rethrow covers every lane.
  try {
    drain(workers_.size(), fn, jobs);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return running_ == 0; });
    fn_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void WorkerPool::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    const JobFn* fn = nullptr;
    std::size_t jobs = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || batch_ != seen; });
      if (stop_) return;
      seen = batch_;
      fn = fn_;
      jobs = jobs_;
    }
    try {
      drain(lane, *fn, jobs);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = (--running_ == 0);
    }
    if (last) done_cv_.notify_all();
  }
}

}  // namespace pmc
