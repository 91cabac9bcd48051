#include "harness/thread_pool.hh"

#include "common/logging.hh"

namespace seesaw::harness {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    SEESAW_ASSERT(task, "cannot submit an empty task");
    {
        MutexLock lock(mutex_);
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::wait()
{
    MutexLock lock(mutex_);
    while (!queue_.empty() || inFlight_ != 0)
        lock.wait(drained_);
    if (firstError_) {
        auto error = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stopping_ && queue_.empty())
                lock.wait(wake_);
            // Drain the queue even when stopping: destructor-initiated
            // shutdown still runs everything that was submitted, so an
            // empty queue here means stopping_ — time to exit.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
        }
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        {
            MutexLock lock(mutex_);
            if (error && !firstError_)
                firstError_ = error;
            --inFlight_;
            if (queue_.empty() && inFlight_ == 0)
                drained_.notify_all();
        }
    }
}

} // namespace seesaw::harness
