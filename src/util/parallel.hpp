/**
 * @file
 * Deterministic parallel execution for mask generation and sweeps.
 *
 * Every figure bench runs Alg. 1 mask generation, DDC encoding, and the
 * pipeline simulator over hundreds of (layer, sparsity, accelerator)
 * configurations; those units are independent, so they parallelize —
 * but the library promises bit-identical reproduction of every
 * experiment, so parallelism must never change a result.
 *
 * The guarantee: work is decomposed into contiguous index chunks whose
 * layout depends only on the problem size and the caller's grain, never
 * on the worker count; chunk results land in index-addressed slots and
 * reductions fold them in index order. Threads only change *when* a
 * chunk runs, not *what* it computes or how results combine, so output
 * is byte-identical to the serial path at any thread count.
 *
 * Worker count resolution (first match wins):
 *  1. a ThreadScope / setThreads() override on the calling thread,
 *  2. inside a chunk body, the worker count of the pool running it,
 *  3. the TBSTC_THREADS environment variable,
 *  4. std::thread::hardware_concurrency().
 * A count of 1 runs every region inline on the calling thread — the
 * exact serial fallback path.
 *
 * Nesting: a parallel region opened inside a chunk body (a parallel
 * sweep whose layers parallelize their own block loops) is a batch on
 * the same pool, not an inline loop, so idle workers help with it.
 * Idle workers always take the newest open batch first; a submitter
 * runs its own batch's chunks and only waits once all of them are
 * claimed by running threads, so nesting cannot deadlock and any
 * number of threads may submit at once. Inside a chunk body a worker
 * count override only matters as 1 (run nested regions inline); other
 * values keep the enclosing pool.
 */

#ifndef TBSTC_UTIL_PARALLEL_HPP
#define TBSTC_UTIL_PARALLEL_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "logging.hpp"
#include "rng.hpp"

namespace tbstc::util {

/**
 * Effective worker count for parallel regions submitted by this
 * thread: override > enclosing pool > TBSTC_THREADS >
 * hardware_concurrency.
 */
size_t effectiveThreads();

/**
 * Override the worker count for this thread's subsequent parallel
 * regions (0 clears the override). Configuration-time API: do not call
 * while another thread is inside a parallel region.
 */
void setThreads(size_t n);

/**
 * RAII worker-count override (restores the previous override on
 * destruction). ThreadScope(0) is a no-op, so configuration knobs with
 * a 0 = "inherit" convention can be applied unconditionally.
 */
class ThreadScope
{
  public:
    explicit ThreadScope(size_t n);
    ~ThreadScope();
    ThreadScope(const ThreadScope &) = delete;
    ThreadScope &operator=(const ThreadScope &) = delete;

  private:
    size_t saved_ = 0;
    bool active_ = false;
};

/**
 * Block until any in-flight batch on the shared pool has completed.
 * After drainPool() returns, every chunk body submitted by other
 * threads before the call has finished executing (the pool may accept
 * new batches immediately after). Safe to call when no pool exists or
 * from a pool worker (then a no-op: the caller is the in-flight work).
 */
void drainPool();

/**
 * Join the shared pool's workers and destroy it; the next parallel
 * region lazily rebuilds one. This replaces destructor-order-dependent
 * teardown: long-running processes (the serve daemon) call it after
 * draining their work so pool exit is deterministic, and one-shot
 * tools call it at the end of main. Quiescent-point operation: no
 * other thread may be submitting parallel regions during the call,
 * and it must not be called from inside a parallel region.
 * Idempotent; safe when no pool was ever built.
 */
void shutdownPool();

/**
 * Execute @p chunk for every index in [0, chunks) on the shared pool
 * (or, from inside a chunk body, on the pool running it), blocking
 * until all complete. Chunks may run in any order and concurrently;
 * the first exception (lowest chunk index) is rethrown after the batch
 * drains. Runs inline when the effective worker count or @p chunks is
 * 1.
 */
void runChunked(size_t chunks, const std::function<void(size_t)> &chunk);

/**
 * Chunked parallel loop: @p body receives contiguous [begin, end)
 * index ranges covering [0, n). @p grain is the chunk length (0 picks
 * one that load-balances across the pool). Bodies must write only to
 * index-addressed, disjoint locations — then the result is identical
 * at any thread count.
 */
void parallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t)> &body);

/**
 * Derive @p n independent child RNG streams from one seed. The streams
 * depend only on (seed, n) — hand stream i to chunk i and a stochastic
 * parallel loop reproduces bit-identically at any thread count.
 */
std::vector<Rng> rngStreams(uint64_t seed, size_t n);

/**
 * Map each index in [0, n) through @p map, returning results in index
 * order. T must be default-constructible. Each index is its own chunk:
 * built for coarse units (a layer simulation, a sweep point).
 */
template <typename T, typename MapFn>
std::vector<T>
parallelMap(size_t n, MapFn map)
{
    std::vector<T> out(n);
    runChunked(n, [&](size_t i) { out[i] = map(i); });
    return out;
}

/**
 * Ordered reduction: partition [0, n) into ceil(n / grain) contiguous
 * chunks, evaluate @p map(begin, end) per chunk in parallel, then fold
 * the chunk values with @p reduce in ascending chunk order. Because
 * the chunk layout is fixed by (n, grain) and the fold is serial and
 * ordered, the result is bit-identical at any thread count — even for
 * non-associative operations like floating-point sums. @p grain must
 * be > 0.
 */
template <typename T, typename MapFn, typename ReduceFn>
T
orderedReduce(size_t n, size_t grain, T init, MapFn map, ReduceFn reduce)
{
    ensure(grain > 0, "orderedReduce requires grain > 0");
    if (n == 0)
        return init;
    const size_t chunks = (n + grain - 1) / grain;
    std::vector<T> partial(chunks);
    runChunked(chunks, [&](size_t ci) {
        const size_t begin = ci * grain;
        const size_t end = begin + grain < n ? begin + grain : n;
        partial[ci] = map(begin, end);
    });
    T acc = std::move(init);
    for (auto &p : partial)
        acc = reduce(std::move(acc), std::move(p));
    return acc;
}

} // namespace tbstc::util

#endif // TBSTC_UTIL_PARALLEL_HPP
