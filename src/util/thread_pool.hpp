// Fork-join fan-out for coarse, independent units of work: the lanes of a
// campaign (`wsnex run`/`resume --jobs`) and the replicate chunks of a
// Monte Carlo validation (`wsnex validate --jobs`). Each command has one
// parallel level, so nothing nests and nothing is shared between calls:
// every call starts its own threads and joins them before it returns.
// (The optimizers never fan out: one evaluation costs ~0.4 us, far too
// little to split a scenario across threads.)
#pragma once

#include <cstddef>
#include <functional>

namespace wsnex::util {

/// Resolves a thread-count request: 0 -> hardware concurrency (itself
/// never 0), anything else unchanged.
std::size_t resolve_threads(std::size_t threads);

/// Runs fn(0) … fn(n - 1) concurrently: fn(0) on the calling thread and
/// every other index on a thread started for this call, so n = 0 runs
/// nothing and n = 1 starts no thread. Returns once every index has run
/// and its thread is joined; if any index threw, the exception of the
/// lowest such index is rethrown then. Callers that write results by
/// index therefore produce identical output for any n.
void run_parallel(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace wsnex::util
