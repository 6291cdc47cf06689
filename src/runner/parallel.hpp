// Host-parallel execution of independent simulations.
//
// Every experiment in the paper's evaluation is a cross-product of
// scheme x app x config points, and each point is one self-contained,
// single-threaded sim::Simulator. The ParallelExecutor fans those points
// across host cores with a fixed pool of worker threads (no work stealing:
// workers claim the next submission-order index from a shared counter) and
// hands results back in submission order. Determinism is structural, not
// scheduled: a simulation shares no mutable state with its siblings, so its
// RunResult is bit-identical whether it ran on the caller's thread, on any
// worker, or under any jobs count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace suvtm::runner {

/// Largest host thread count accepted from --jobs, --sim-threads,
/// SUVTM_JOBS or SUVTM_SIM_THREADS.
inline constexpr unsigned kMaxThreadCount = 256;

/// Parse a host thread count read from `what` (the flag or environment
/// variable it came from): a decimal integer in [1, kMaxThreadCount].
/// Throws std::invalid_argument starting with `what` otherwise.
unsigned parse_thread_count(const char* text, const std::string& what);

class ParallelExecutor {
 public:
  /// `jobs` = number of tasks executed concurrently. 0 means
  /// default_jobs(). jobs <= 1 runs every batch inline on the caller's
  /// thread (no pool, byte-for-byte the old serial harness behaviour).
  explicit ParallelExecutor(unsigned jobs = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  unsigned jobs() const { return jobs_; }

  /// Run `fn(0) .. fn(n-1)` across the pool; blocks until all complete.
  /// Indices are claimed in submission order. The first exception thrown by
  /// any task is rethrown here after the batch drains (remaining tasks still
  /// run: they are independent experiments).
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Run the callables and return their results in submission order.
  /// R must be default-constructible (RunResult is).
  template <class R>
  std::vector<R> run_ordered(std::vector<std::function<R()>> tasks) {
    std::vector<R> out(tasks.size());
    run_indexed(tasks.size(),
                [&](std::size_t i) { out[i] = tasks[i](); });
    return out;
  }

  /// Resolution order: SUVTM_JOBS env var, else hardware concurrency.
  /// Throws std::invalid_argument on a malformed SUVTM_JOBS.
  static unsigned default_jobs();

  /// Strip a `--jobs N` (or `--jobs=N`) argument from argv, returning the
  /// requested job count (default_jobs() if absent). Throws
  /// std::invalid_argument on a malformed count (see parse_thread_count).
  static unsigned parse_jobs(int& argc, char** argv);

 private:
  void worker_loop();

  unsigned jobs_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;   // workers: a batch is available
  std::condition_variable cv_done_;   // caller: batch fully drained
  const std::function<void(std::size_t)>* batch_fn_ = nullptr;
  std::size_t batch_n_ = 0;
  std::atomic<std::size_t> next_{0};  // next unclaimed index
  std::size_t unfinished_ = 0;        // workers still inside the batch
  std::uint64_t epoch_ = 0;           // bumped per batch to wake workers
  std::exception_ptr first_error_;
  bool stop_ = false;
};

/// Process-wide executor used by the default run_suite/run_matrix entry
/// points; sized on first use from SUVTM_JOBS (see default_jobs()) or an
/// earlier set_default_jobs() call.
ParallelExecutor& default_executor();

/// Set the job count for the process-wide executor. Must be called before
/// the first default_executor() use (bench harnesses call it right after
/// parse_jobs); later calls are ignored and return false.
bool set_default_jobs(unsigned jobs);

}  // namespace suvtm::runner
