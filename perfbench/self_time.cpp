#include "self_time.hpp"

namespace perfbench {

std::int64_t addSelfTimes(const std::vector<sadp::TraceEvent>& events,
                          std::map<std::string, SelfTime>& out) {
  std::int64_t rootNs = 0;
  std::vector<std::int64_t> childNs(events.size(), 0);
  std::vector<std::size_t> open;  // indices of the enclosing spans
  int tid = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const sadp::TraceEvent& e = events[i];
    if (e.tid != tid) {
      open.clear();
      tid = e.tid;
    }
    while (!open.empty() && events[open.back()].depth >= e.depth) {
      open.pop_back();
    }
    if (open.empty()) {
      rootNs += e.durNs;
    } else {
      childNs[open.back()] += e.durNs;
    }
    open.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    SelfTime& s = out[events[i].name];
    ++s.count;
    s.wallNs += events[i].durNs;
    s.selfNs += events[i].durNs - childNs[i];
  }
  return rootNs;
}

}  // namespace perfbench
