// The three benchmark workloads. Each has a timed run (the end-to-end
// metrics, tracing off), a traced run (the per-layer metrics, from a
// single-threaded replica with spans around every call into a layer) and a
// self-test at toy size.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Timed runs.
Result timed_serve(const Options& options, bool personalize);
Result timed_fleet(const Options& options);

/// Traced runs.
Result traced_serve(const Options& options, bool personalize);
Result traced_fleet(const Options& options);

/// Toy-size runs of the workload and its oracles, plus one deliberately
/// corrupted output record that must be counted as failed. Returns the
/// number of problems found (0 = pass) and logs each check to stderr.
int self_test_serve(const Options& options, bool personalize);
int self_test_fleet(const Options& options);

/// Setup time: median of this many in-process repeats.
inline constexpr int kSetupRepeats = 9;

}  // namespace perfbench
