#include "runner/parallel.hpp"

#include <cerrno>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

namespace suvtm::runner {

unsigned parse_thread_count(const char* text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno != 0 || v < 1 ||
      v > static_cast<long>(kMaxThreadCount)) {
    throw std::invalid_argument(what + " = '" + text +
                                "': expected a thread count in [1, " +
                                std::to_string(kMaxThreadCount) + "]");
  }
  return static_cast<unsigned>(v);
}

ParallelExecutor::ParallelExecutor(unsigned jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {
  if (jobs_ <= 1) return;  // inline mode: no threads at all
  workers_.reserve(jobs_);
  for (unsigned i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::run_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs_ <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  batch_fn_ = &fn;
  batch_n_ = n;
  next_.store(0, std::memory_order_relaxed);
  // Count workers in and out of the batch, not items: the batch is done only
  // once every worker has left its claiming loop. (Counting items lets the
  // caller return while a straggler sits between its last item and its next
  // fetch_add; the next batch's reset of next_ would then hand that straggler
  // a fresh index paired with the previous, dangling batch_fn_.)
  unfinished_ = jobs_;
  first_error_ = nullptr;
  ++epoch_;
  cv_work_.notify_all();
  cv_done_.wait(lk, [&] { return unfinished_ == 0; });
  batch_fn_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ParallelExecutor::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    const auto* fn = batch_fn_;
    const std::size_t n = batch_n_;
    lk.unlock();

    // Claim submission-order indices until the batch is exhausted.
    std::exception_ptr err;
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*fn)(i);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    lk.lock();
    if (err && !first_error_) first_error_ = err;
    if (--unfinished_ == 0) cv_done_.notify_one();
  }
}

unsigned ParallelExecutor::default_jobs() {
  if (const char* env = std::getenv("SUVTM_JOBS")) {
    return parse_thread_count(env, "SUVTM_JOBS");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned ParallelExecutor::parse_jobs(int& argc, char** argv) {
  unsigned jobs = 0;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string arg = argv[r];
    if (arg == "--jobs") {
      // A bare trailing --jobs is consumed (default job count) rather than
      // left behind to be misread as a positional argument.
      if (r + 1 < argc) jobs = parse_thread_count(argv[++r], "--jobs");
      continue;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = parse_thread_count(argv[r] + 7, "--jobs");
      continue;
    }
    argv[w++] = argv[r];
  }
  argc = w;
  return jobs == 0 ? default_jobs() : jobs;
}

namespace {
unsigned g_default_jobs = 0;  // 0 = use ParallelExecutor::default_jobs()
bool g_executor_built = false;
}  // namespace

ParallelExecutor& default_executor() {
  static ParallelExecutor exec(g_default_jobs);
  g_executor_built = true;
  return exec;
}

bool set_default_jobs(unsigned jobs) {
  if (g_executor_built) return false;
  g_default_jobs = jobs;
  return true;
}

}  // namespace suvtm::runner
