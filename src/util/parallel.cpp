#include "util/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ppsc {
namespace util {

namespace {

// True on pool workers always, and on a caller while it runs its share
// of a call: a parallel_for made there runs inline.
thread_local bool in_pool_task = false;

// One parallel_for call, on the caller's stack.
struct Job {
  Job(std::size_t n, const std::function<void(std::size_t)>& f)
      : body(&f), hi(n), failed(n) {}

  // Runs claimed indices until none is left: the lowest unclaimed one
  // on a worker, the highest on the caller.
  void work(bool from_top) {
    std::size_t i = 0;
    while (claim(from_top, &i)) {
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < failed) {
          failed = i;
          error = std::current_exception();
        }
      }
    }
  }

  bool claim(bool from_top, std::size_t* i) {
    std::lock_guard<std::mutex> lock(mu);
    // Indices above the lowest failure so far are never started.
    hi = std::min(hi, failed);
    if (lo >= hi) return false;
    *i = from_top ? --hi : lo++;
    return true;
  }

  const std::function<void(std::size_t)>* body;
  // Guarded by mu: the unclaimed indices [lo, hi), the lowest failing
  // index so far (the count: none) and its exception.
  std::mutex mu;
  std::size_t lo = 0;
  std::size_t hi;
  std::size_t failed;
  std::exception_ptr error;
  // Guarded by Pool::mu_: workers that may still join, workers inside.
  unsigned seats = 0;
  unsigned active = 0;
};

class Pool {
 public:
  // Started on first use; destroyed at exit, after every call.
  static Pool& global() {
    static Pool pool;
    return pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  // Runs `job` on the caller and up to `helpers` workers; false (and
  // nothing run) when another caller holds the pool.
  bool run(Job& job, unsigned helpers) {
    std::unique_lock<std::mutex> submit(submit_, std::try_to_lock);
    if (!submit.owns_lock()) return false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.seats = helpers;
      job_ = &job;
      ++generation_;
    }
    wake_.notify_all();
    in_pool_task = true;
    job.work(true);
    in_pool_task = false;
    // Close the job to late wakers, then wait out the workers inside
    // it: the job lives on this stack.
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;
    done_.wait(lock, [&job] { return job.active == 0; });
    return true;
  }

 private:
  Pool() {
    for (unsigned w = 1; w < parallel_width(); ++w) {
      workers_.emplace_back([this] { loop(); });
    }
  }

  void loop() {
    in_pool_task = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      Job* job = job_;
      if (job == nullptr || job->seats == 0) continue;
      --job->seats;
      ++job->active;
      lock.unlock();
      job->work(false);
      lock.lock();
      if (--job->active == 0) done_.notify_all();
    }
  }

  std::mutex submit_;  // one call holds the pool at a time
  // Guards job_, generation_, stop_ and the job's seats and active.
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace

unsigned parallel_width() {
  static const unsigned width =
      std::max(1u, std::thread::hardware_concurrency());
  return width;
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  unsigned max_threads) {
  const std::size_t threads = std::min<std::size_t>(
      {max_threads == 0 ? parallel_width() : max_threads, parallel_width(),
       count});
  if (threads > 1 && !in_pool_task) {
    Job job(count, body);
    if (Pool::global().run(job, static_cast<unsigned>(threads - 1))) {
      if (job.error) std::rethrow_exception(job.error);
      return;
    }
  }
  for (std::size_t i = 0; i < count; ++i) body(i);
}

}  // namespace util
}  // namespace ppsc
