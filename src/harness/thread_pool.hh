/**
 * @file
 * A fixed-size worker pool over a shared task queue, used by the
 * campaign runner to execute simulation cells in parallel.
 *
 * Tasks are plain callables; the first exception any task throws is
 * captured and rethrown from wait(), so campaign-level failures
 * (SEESAW_FATAL aside, which exits) surface on the submitting thread.
 *
 * Locking: all shared state is guarded by mutex_ and annotated for
 * Clang Thread Safety Analysis (see common/thread_annotations.hh);
 * tasks always execute with the mutex released.
 */

#ifndef SEESAW_HARNESS_THREAD_POOL_HH
#define SEESAW_HARNESS_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"

namespace seesaw::harness {

/**
 * A queue-based thread pool. Construct with a worker count, submit()
 * tasks, then wait() for the queue to drain (or let the destructor
 * do so). The destructor joins every worker, so shutdown is safe even
 * with tasks still queued — they all run first.
 */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 is clamped to 1. */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task) SEESAW_EXCLUDES(mutex_);

    /**
     * Block until every submitted task has finished, then rethrow the
     * first exception any task raised (if any). The pool stays usable
     * for further submit() calls afterwards.
     */
    void wait() SEESAW_EXCLUDES(mutex_);

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop() SEESAW_EXCLUDES(mutex_);

    AnnotatedMutex mutex_;
    std::condition_variable wake_;   //!< workers: queue non-empty / stop
    std::condition_variable drained_; //!< waiters: all work finished
    std::deque<std::function<void()>> queue_ SEESAW_GUARDED_BY(mutex_);
    /** Tasks popped but not yet finished. */
    std::size_t inFlight_ SEESAW_GUARDED_BY(mutex_) = 0;
    bool stopping_ SEESAW_GUARDED_BY(mutex_) = false;
    std::exception_ptr firstError_ SEESAW_GUARDED_BY(mutex_);
    std::vector<std::thread> workers_; //!< written only in ctor/dtor
};

} // namespace seesaw::harness

#endif // SEESAW_HARNESS_THREAD_POOL_HH
