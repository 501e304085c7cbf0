#include "src/util/thread_pool.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace ftb {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(Job& job) {
  for (;;) {
    // Fail-fast: once any participant has captured a failure, stop
    // claiming blocks. The refs-based completion accounting is untouched —
    // in-flight blocks on other participants run to the end of their range
    // (their side effects are disjoint and their pooled scratch is
    // released by RAII leases), the cursor is simply never advanced past
    // the abandoned tail by anyone who has seen the flag.
    if (job.failed.load(std::memory_order_acquire)) return;
    const std::size_t b = job.next_block.fetch_add(1, std::memory_order_relaxed);
    if (b >= job.num_blocks) return;
    const std::size_t lo = b * job.block;
    const std::size_t hi = std::min(job.count, lo + job.block);
    try {
      for (std::size_t i = lo; i < hi; ++i) job.fn(job.ctx, i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> err_lock(job.err_mu);
        if (!job.error) job.error = std::current_exception();
      }
      // Publish after the capture: a drain that observes the flag and
      // returns is guaranteed a non-null job.error behind it.
      job.failed.store(true, std::memory_order_release);
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stop_ || (current_job_ != nullptr && job_seq_ != seen);
      });
      if (stop_) return;
      seen = job_seq_;
      job = current_job_;
      // The ref is taken under mu_, so the caller (whose release predicate
      // also runs under mu_) can never miss a late joiner.
      ++job->refs;
    }
    drain(*job);
    {
      // Leaving under mu_ both publishes this worker's fn side effects to
      // the caller (which re-acquires mu_ in its wait) and guarantees the
      // job outlives this access: the caller cannot observe refs == 0 and
      // reclaim the stack frame before this critical section ends.
      std::lock_guard<std::mutex> lock(mu_);
      --job->refs;
    }
    // done_cv_ is shared by all potential callers, so wake every one of
    // them; each re-checks its own job's predicate. (notify_one could hand
    // the single wakeup to the wrong caller and strand the right one.)
    done_cv_.notify_all();
  }
}

void ThreadPool::run_job(std::size_t count, std::size_t shards_per_thread,
                         BlockFn fn, const void* ctx) {
  if (count == 0) return;
  const std::size_t nthreads = thread_count();
  // Small batches aren't worth the synchronization overhead.
  if (nthreads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(ctx, i);
    return;
  }

  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.count = count;
  const std::size_t shards = std::min(
      count, std::max<std::size_t>(1, nthreads * shards_per_thread));
  job.block = (count + shards - 1) / shards;
  job.num_blocks = (count + job.block - 1) / job.block;

  {
    std::lock_guard<std::mutex> lock(mu_);
    FTB_CHECK_MSG(!stop_, "parallel_for on a stopped pool");
    current_job_ = &job;
    ++job_seq_;
  }
  cv_.notify_all();

  // The caller is a participant too — it never blocks while work remains.
  // Its drain() returns only once the claim cursor is exhausted, so every
  // block is either done or owned by a worker still counted in refs.
  drain(job);

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return job.refs == 0; });
    // Unpublish in the same critical section that observed refs == 0: a
    // late worker can only join under mu_, so after this point none ever
    // sees the dying job (its seq predicate already excludes re-joins).
    if (current_job_ == &job) current_job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool& ThreadPool::caller_only() {
  static ThreadPool pool{NoWorkers{}};
  return pool;
}

}  // namespace ftb
