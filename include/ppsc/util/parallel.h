// One process-wide ordered parallel-for: the thread layer under the
// input odometers (verify::check_up_to, check_well_specification_up_to),
// the convergence sweeps (sim::measure_convergence_parallel), the
// sharded kernel's epochs (sim/sharded.h) and the resolve phase of a
// frontier batch inside one petri::explore (petri/reachability.h).
//
// Thread model:
//
//  * A persistent pool of hardware_concurrency() - 1 workers, started
//    on the first call that can use more than one thread and joined at
//    exit. The calling thread takes part, so a call runs on at most
//    hardware_concurrency() threads, and the number of threads (and of
//    obs trace rings) a process ever creates stays bounded.
//  * After a call, a worker spins on the pool's call generation for
//    kSpinWindow, then parks on a condition variable; one the call
//    turned away, all its seats taken, parks at once. A caller whose
//    share is done spins the same window on the workers still inside
//    before it parks.
//    Back-to-back calls -- the sharded kernel's epochs
//    (sim/sharded.h), one call per epoch -- so start and end without
//    a futex wake-up, and an idle pool takes no core after one window.
//    A pool that parked after every call made perfbench deep-large
//    about 10% slower (docs/sim-sharding.md).
//  * Workers claim the lowest unclaimed index and the caller the
//    highest, so a caller whose indices grow in cost (the odometers'
//    populations) keeps the largest items on its own thread. Callers
//    write results into per-index slots and read them back in index
//    order, so the answer is the same for 1 and N threads, bit for bit.
//  * Runs inline, on the calling thread alone, when max_threads is 1,
//    when count < 2, when called from inside a pool task (a nested
//    call cannot deadlock on a pool it occupies), and when another
//    thread's call holds the pool.
//  * Exceptions: if some body(i) throws, the lowest-index exception is
//    rethrown once every claimed index has finished -- the exception a
//    serial loop in index order would throw. Indices above the lowest
//    failing index claimed so far are not started.

#ifndef PPSC_UTIL_PARALLEL_H
#define PPSC_UTIL_PARALLEL_H

#include <chrono>
#include <cstddef>
#include <functional>

namespace ppsc {
namespace util {

// How long a waiting thread spins before it parks: well over the serial
// phase between two sharded epochs (the exchange apply plus census
// refresh, about 0.15-0.20 ms at 2^24 agents and S = 8), so workers
// stay spinning through it, and short enough that an idle pool parks
// within milliseconds. Shorter windows measured slower
// (docs/sim-sharding.md).
inline constexpr std::chrono::microseconds kSpinWindow{4000};

// Threads a call may run on: the pool's workers plus the caller.
unsigned parallel_width();

// True when a parallel_for called from this thread runs inline
// whatever its count and max_threads: inside a pool task (a worker, or
// a caller running its share) and in a one-thread pool. False on an
// idle pool's caller, although such a call still runs inline if
// another thread's call takes the pool first. petri::explore asks it
// to choose one-head batches.
bool runs_inline();

// Calls body(i) once for every i in [0, count), on the calling thread
// and up to max_threads - 1 pool workers (0 = parallel_width()).
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  unsigned max_threads = 0);

}  // namespace util
}  // namespace ppsc

#endif  // PPSC_UTIL_PARALLEL_H
