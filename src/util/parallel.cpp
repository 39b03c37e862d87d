#include "util/parallel.h"

#include <algorithm>
#include <atomic>
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

// One spin-wait probe: tells the core this is a busy-wait loop, which
// frees pipeline resources for a sibling hyperthread.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spins until done() holds or kSpinWindow has passed, and returns
// done(). The clock is read, and the thread yields, only every
// kProbesPerYield probes, so a short wait costs a few loads and pauses.
template <typename Done>
bool spin_until(const Done& done) {
  constexpr unsigned kProbesPerYield = 256;
  if (done()) return true;
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (unsigned probe = 1;; ++probe) {
    cpu_relax();
    if (done()) return true;
    if (probe % kProbesPerYield == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
  }
}

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
  // Guarded by Pool::mu_: workers that may still join.
  unsigned seats = 0;
  // Workers inside; changed under Pool::mu_, read by a spinning caller.
  std::atomic<unsigned> active{0};
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
      stop_.store(true);
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
      generation_.fetch_add(1);
    }
    wake_.notify_all();
    in_pool_task = true;
    job.work(true);
    in_pool_task = false;
    // Close the job to late wakers, then wait out the workers inside
    // it: the job lives on this stack.
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = nullptr;
    }
    const auto drained = [&job] { return job.active.load() == 0; };
    if (!spin_until(drained)) {
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, drained);
    }
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
    bool spin = false;
    const auto woken = [&] {
      return stop_.load() || generation_.load() != seen;
    };
    for (;;) {
      if (spin) spin_until(woken);
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, woken);  // returns at once after a spin that saw it
      if (stop_.load()) return;
      seen = generation_.load();
      Job* job = job_;
      // A worker turned away by a call with no seat left parks at once,
      // so a run of narrow calls keeps no core it does not use; one that
      // came after the call closed spins, as the next call may want it.
      spin = job == nullptr || job->seats > 0;
      if (!spin || job == nullptr) continue;
      --job->seats;
      job->active.fetch_add(1);
      lock.unlock();
      job->work(false);
      lock.lock();
      // Under mu_, so a caller that parked cannot miss the notify.
      if (job->active.fetch_sub(1) == 1) done_.notify_all();
    }
  }

  std::mutex submit_;  // one call holds the pool at a time
  // Guards job_ and the job's seats and active, and orders parking
  // against the stores that end a wait.
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;
  // Atomic for the spinning waits; stored under mu_.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> stop_{false};
  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace

unsigned parallel_width() {
  static const unsigned width =
      std::max(1u, std::thread::hardware_concurrency());
  return width;
}

bool runs_inline() { return in_pool_task || parallel_width() == 1; }

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
