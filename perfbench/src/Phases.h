//===- perfbench/src/Phases.h - The four measured phases ------------------===//
///
/// \file
/// One phase per workload (see README.md):
///
///  - lookup:  closed-loop `MappedIndex::lookupBatch` on 4 workers
///             (`lookup_mapped`);
///  - serve:   open-loop single lookups against an in-process
///             `serve::Server` over Unix sockets (`serve_open_loop`);
///  - subtree: `AlphaHasher::hashAllInto` + `groupSubexpressionsByHash`
///             over large single terms (`subtree_hash`);
///  - churn:   `appendSegment` / reopen / segmented `lookupBatch` /
///             `compactSegments` rounds against a std::map oracle
///             (`segment_churn`).
///
/// A phase is set up (timed, as `setup_s`), then either measured
/// untraced or walked through one public call at a time under the span
/// recorder. An untraced run sets up and measures its workload's phase
/// only, and reports `cpu_ns_per_op` -- the median CPU cost of one
/// operation of that phase's own path -- beside the phase's named
/// metrics. A traced run must print every per-layer metric, so it sets
/// up and walks all four phases.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include "Common.h"

#include <memory>
#include <stdexcept>

namespace perfbench {

class Phase {
public:
  Phase() = default;
  Phase(const Phase &) = delete;
  Phase &operator=(const Phase &) = delete;
  virtual ~Phase() = default;
  virtual const char *name() const = 0;
  /// Generate inputs, build and open what the phase serves. Throws
  /// std::runtime_error on failure.
  virtual void setup(RunEnv &Env) = 0;
  /// Untraced run: measure for about Env.Seconds and set the end-to-end
  /// metrics, `cpu_ns_per_op` among them.
  virtual void measure(RunEnv &Env) = 0;
  /// Traced run: walk for about Env.Seconds and set the per-layer metrics.
  virtual void trace(RunEnv &Env) = 0;
};

std::unique_ptr<Phase> makeLookupPhase();
std::unique_ptr<Phase> makeServePhase();
std::unique_ptr<Phase> makeSubtreePhase();
std::unique_ptr<Phase> makeChurnPhase();

[[noreturn]] inline void fail(const std::string &What) {
  throw std::runtime_error(What);
}

} // namespace perfbench

#endif // PERFBENCH_PHASES_H
