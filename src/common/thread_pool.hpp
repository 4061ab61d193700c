#pragma once
// Fixed-size worker pool used to evaluate batches of configurations in
// parallel (the session scheduler's asked batches, Random Search) and to fit
// random-forest trees.
//
// The pool follows the explicit-parallelism idiom: tasks are plain
// std::function jobs, results flow back through std::future, and the pool is
// an RAII object that joins its workers on destruction.

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace tunekit {

class ThreadPool {
 public:
  /// Creates `n_threads` workers; n_threads == 0 uses hardware_concurrency()
  /// (at least one).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a callable; returns a future with its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool::submit on stopped pool");
      jobs_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// Exceptions from tasks are rethrown (the first one encountered).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace tunekit
