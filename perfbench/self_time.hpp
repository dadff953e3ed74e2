// Exclusive (self) time per span name, rebuilt from a Full-level trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

struct SelfTime {
  std::int64_t count = 0;
  std::int64_t wallNs = 0;  ///< inclusive
  std::int64_t selfNs = 0;  ///< wallNs minus the time of direct children
};

/// Accumulates self time into `out` from one batch of events. A span's
/// direct children are the later spans of the same thread one level
/// deeper, up to the next span at its own depth or shallower; the events
/// must be in TraceSink::collectEvents() order (tid, start, longest
/// first). Returns the summed duration of the depth-0 spans, i.e. the
/// wall time the batch's spans cover on each thread.
std::int64_t addSelfTimes(const std::vector<sadp::TraceEvent>& events,
                          std::map<std::string, SelfTime>& out);

}  // namespace perfbench
