// Minimal parallel_for used by the benchmark/sweep harness to run
// independent simulation instances (parameter sweeps) concurrently;
// results are position-addressed so no ordering nondeterminism can leak
// into output. Parallelism *within* one run is the engine's row-band
// pipeline on a WorkerPool (core/worker_pool.hpp, DESIGN.md §9), which is
// deterministic at any thread count. default_thread_count() sizes both.
#pragma once

#include <cstddef>
#include <functional>

namespace mr {

/// Number of worker threads used by parallel_for (hardware_concurrency,
/// at least 1). Can be overridden with the MESHROUTE_THREADS env var.
std::size_t default_thread_count();

/// Runs fn(i) for i in [0, count) across default_thread_count() threads.
/// Blocks until all iterations are complete. Exceptions from fn are
/// captured and the first one is rethrown on the calling thread; the first
/// error also cancels iterations that no worker has claimed yet.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

/// Same, but with an explicit worker count (0 = default_thread_count()).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t thread_count);

}  // namespace mr
