#include "parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "logging.hpp"
#include "obs/obs.hpp"

namespace tbstc::util {

namespace {

class ThreadPool;

/**
 * The pool whose chunk bodies this thread is executing: set for pool
 * workers permanently and for a submitter while it drains its own
 * batch. Nested parallel regions submit to this pool.
 */
thread_local ThreadPool *current_pool = nullptr;

/** Per-thread worker-count override; 0 = none. */
thread_local size_t thread_override = 0;

/** TBSTC_THREADS, parsed once; 0 = unset/invalid. */
size_t
envThreads()
{
    static const size_t parsed = [] {
        const char *env = std::getenv("TBSTC_THREADS");
        if (env == nullptr || *env == '\0')
            return size_t{0};
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end == env || *end != '\0') {
            warn("ignoring unparsable TBSTC_THREADS='{}'", env);
            return size_t{0};
        }
        return static_cast<size_t>(v);
    }();
    return parsed;
}

/**
 * One batch of chunk work. Owned by the submitting thread's stack and
 * listed in the pool's live set until the submitter observes every
 * chunk done; all fields but errors are guarded by the pool mutex.
 */
struct Batch
{
    const std::function<void(size_t)> *fn = nullptr;
    size_t chunks = 0;
    uint64_t seq = 0;  ///< Submission order (drainPool's horizon).
    size_t next = 0;   ///< Next unclaimed chunk index.
    size_t done = 0;   ///< Completed chunk count.
    std::vector<std::exception_ptr> errors; ///< Slot per chunk.
};

/**
 * Pool telemetry (Domain::Host: values depend on the host schedule and
 * worker count, so they are excluded from the deterministic export).
 */
struct PoolMetrics
{
    obs::Counter batches =
        obs::counter("parallel.batches", obs::Domain::Host);
    obs::Counter chunks =
        obs::counter("parallel.chunks", obs::Domain::Host);
    obs::Counter inlineChunks =
        obs::counter("parallel.chunks_inline", obs::Domain::Host);
    obs::Counter steals =
        obs::counter("parallel.steals", obs::Domain::Host);
    obs::Gauge queueDepthPeak =
        obs::gauge("parallel.queue_depth_peak", obs::Domain::Host);
    obs::Gauge workersPeak =
        obs::gauge("parallel.workers_peak", obs::Domain::Host);
};

const PoolMetrics &
poolMetrics()
{
    static const PoolMetrics m;
    return m;
}

/**
 * A fixed set of workers serving any number of open batches. Batches
 * nest: a chunk body may submit a batch of its own, from a worker or
 * from a submitter draining its batch. Scheduling rules:
 *
 *  - an idle worker claims one chunk at a time from the newest batch
 *    that still has unclaimed chunks, so a nested batch is served
 *    before new outer chunks start (outer work in flight stays bounded
 *    by the worker count);
 *  - a submitter claims its own batch's chunks until none is left
 *    unclaimed, then waits for the chunks other threads claimed.
 *
 * Every batch can complete on its submitter alone, and a thread only
 * waits once all of its batch's chunks are claimed by running threads,
 * so nesting cannot deadlock.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(size_t workers)
        : workers_(workers > 0 ? workers : 1)
    {
        // The submitter executes chunks too, so spawn workers - 1.
        for (size_t i = 0; i + 1 < workers_; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard lk(m_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t workers() const { return workers_; }

    /** Block until every batch submitted before the call has completed. */
    void
    quiesce()
    {
        std::unique_lock lk(m_);
        const uint64_t horizon = nextSeq_;
        done_cv_.wait(lk, [&] {
            return std::none_of(live_.begin(), live_.end(),
                                [&](const Batch *b) {
                                    return b->seq < horizon;
                                });
        });
    }

    /** Execute a batch, blocking until every chunk has completed. */
    void
    run(size_t chunks, const std::function<void(size_t)> &fn)
    {
        if (obs::metricsEnabled()) {
            poolMetrics().batches.add();
            poolMetrics().workersPeak.record(
                static_cast<int64_t>(workers_));
        }

        Batch batch;
        batch.fn = &fn;
        batch.chunks = chunks;
        batch.errors.resize(chunks);
        {
            std::lock_guard lk(m_);
            batch.seq = nextSeq_++;
            live_.push_back(&batch);
        }
        cv_.notify_all();

        ThreadPool *const outer = current_pool;
        current_pool = this;
        std::unique_lock lk(m_);
        while (batch.next < batch.chunks) {
            const size_t ci = batch.next++;
            lk.unlock();
            execute(batch, ci, /*stealing=*/false);
            lk.lock();
            ++batch.done;
        }
        current_pool = outer;
        done_cv_.wait(lk, [&] { return batch.done == batch.chunks; });
        live_.erase(std::find(live_.begin(), live_.end(), &batch));
        lk.unlock();
        done_cv_.notify_all(); // quiesce() may be waiting on this batch.

        for (auto &err : batch.errors)
            if (err)
                std::rethrow_exception(err);
    }

    static void
    runInline(size_t chunks, const std::function<void(size_t)> &fn)
    {
        if (obs::metricsEnabled())
            poolMetrics().inlineChunks.add(chunks);
        for (size_t ci = 0; ci < chunks; ++ci)
            fn(ci);
    }

  private:
    /** Run chunk @p ci of @p b, parking any exception in its slot. */
    static void
    execute(Batch &b, size_t ci, bool stealing)
    {
        if (obs::metricsEnabled()) {
            poolMetrics().chunks.add();
            if (stealing)
                poolMetrics().steals.add();
            poolMetrics().queueDepthPeak.record(
                static_cast<int64_t>(b.chunks - ci));
        }
        try {
            (*b.fn)(ci);
        } catch (...) {
            b.errors[ci] = std::current_exception();
        }
    }

    /** Newest live batch with an unclaimed chunk, or null. Needs m_. */
    Batch *
    newestOpen() const
    {
        for (auto it = live_.rbegin(); it != live_.rend(); ++it)
            if ((*it)->next < (*it)->chunks)
                return *it;
        return nullptr;
    }

    void
    workerLoop()
    {
        current_pool = this;
        std::unique_lock lk(m_);
        for (;;) {
            Batch *b = nullptr;
            cv_.wait(lk, [&] {
                return stop_ || (b = newestOpen()) != nullptr;
            });
            if (stop_)
                return;
            const size_t ci = b->next++;
            lk.unlock();
            execute(*b, ci, /*stealing=*/true);
            lk.lock();
            // The submitter may free the batch once this count lands.
            if (++b->done == b->chunks)
                done_cv_.notify_all();
        }
    }

    size_t workers_;
    std::vector<std::thread> threads_;

    std::mutex m_;
    std::condition_variable cv_;      ///< Wakes workers for new chunks.
    std::condition_variable done_cv_; ///< Wakes submitters and drainers.
    std::vector<Batch *> live_;       ///< Unfinished batches, oldest first.
    uint64_t nextSeq_ = 0;            ///< Guarded by m_.
    bool stop_ = false;               ///< Guarded by m_.
};

/**
 * Shared pool, rebuilt when the effective worker count changes. The
 * caller keeps the returned shared_ptr for the duration of run(): a
 * concurrent resize swaps a new pool in here, and the displaced pool
 * is destroyed (workers joined) only when its last user finishes.
 */
std::mutex &
poolMutex()
{
    static std::mutex m;
    return m;
}

std::shared_ptr<ThreadPool> &
poolSlot()
{
    static std::shared_ptr<ThreadPool> pool;
    return pool;
}

std::shared_ptr<ThreadPool>
globalPool(size_t want)
{
    std::lock_guard lk(poolMutex());
    std::shared_ptr<ThreadPool> &pool = poolSlot();
    if (!pool || pool->workers() != want)
        pool = std::make_shared<ThreadPool>(want);
    return pool;
}

} // namespace

size_t
effectiveThreads()
{
    if (thread_override > 0)
        return thread_override;
    if (current_pool != nullptr)
        return current_pool->workers();
    if (envThreads() > 0)
        return envThreads();
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
setThreads(size_t n)
{
    thread_override = n;
}

ThreadScope::ThreadScope(size_t n)
{
    if (n == 0)
        return;
    saved_ = thread_override;
    thread_override = n;
    active_ = true;
}

ThreadScope::~ThreadScope()
{
    if (active_)
        thread_override = saved_;
}

void
drainPool()
{
    if (current_pool != nullptr)
        return; // The caller *is* the in-flight work.
    std::shared_ptr<ThreadPool> pool;
    {
        std::lock_guard lk(poolMutex());
        pool = poolSlot();
    }
    if (pool)
        pool->quiesce();
}

void
shutdownPool()
{
    ensure(current_pool == nullptr,
           "shutdownPool() must not be called from a parallel region");
    std::shared_ptr<ThreadPool> pool;
    {
        std::lock_guard lk(poolMutex());
        pool = std::move(poolSlot());
        poolSlot().reset();
    }
    if (pool) {
        // Quiescent-point contract: we hold the only reference, so the
        // destructor runs here and joins every worker before return.
        pool->quiesce();
        pool.reset();
    }
}

void
runChunked(size_t chunks, const std::function<void(size_t)> &chunk)
{
    if (chunks == 0)
        return;
    const size_t workers = effectiveThreads();
    if (workers <= 1 || chunks == 1) {
        ThreadPool::runInline(chunks, chunk);
        return;
    }
    // A nested region joins the pool its caller is running on.
    if (current_pool != nullptr) {
        current_pool->run(chunks, chunk);
        return;
    }
    globalPool(workers)->run(chunks, chunk);
}

void
parallelFor(size_t n, size_t grain,
            const std::function<void(size_t, size_t)> &body)
{
    if (n == 0)
        return;
    if (grain == 0) {
        // Load-balancing auto-grain. Bodies write index-addressed
        // disjoint locations, so a worker-count-dependent layout is
        // still deterministic (unlike orderedReduce, whose fold order
        // must be pinned by an explicit grain).
        grain = n / (effectiveThreads() * 8);
        if (grain == 0)
            grain = 1;
    }
    const size_t chunks = (n + grain - 1) / grain;
    runChunked(chunks, [&](size_t ci) {
        const size_t begin = ci * grain;
        const size_t end = begin + grain < n ? begin + grain : n;
        body(begin, end);
    });
}

std::vector<Rng>
rngStreams(uint64_t seed, size_t n)
{
    Rng root(seed);
    std::vector<Rng> streams;
    streams.reserve(n);
    for (size_t i = 0; i < n; ++i)
        streams.push_back(root.split());
    return streams;
}

} // namespace tbstc::util
