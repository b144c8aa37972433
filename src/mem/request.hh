// Memory request as seen by the controller.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hh"
#include "dram/command.hh"

namespace ima::mem {

struct Request {
  Addr addr = 0;
  AccessType type = AccessType::Read;
  std::uint32_t core = 0;       // requesting core / agent id
  std::uint64_t id = 0;         // unique, assigned by the controller
  // Caller-owned cookie, carried untouched through the queue and handed
  // back in the completion callback. Open-loop feeders stamp the *intended*
  // arrival cycle here: when backpressure admits a request late, `arrive`
  // records the admission cycle (what the controller saw) while `tag`
  // preserves the offered-load timestamp, so serving benches can account
  // the full source-to-data latency including the time spent waiting for a
  // queue slot — exactly the congested tail an admission-based clock hides.
  std::uint64_t tag = 0;
  Cycle arrive = 0;             // enqueue cycle
  Cycle complete = kCycleNever; // data-available cycle (filled at completion)
  // Lifecycle span stamps (telemetry; maintained only while the request is
  // in flight, read back by the controller's span recorders at retire):
  Cycle first_cmd = kCycleNever; // first DRAM command issued on its behalf
  Cycle served = kCycleNever;    // RD/WR issued; data transfer begins
  Cycle blocked_queue = 0;       // refresh-blocked cycles before first_cmd
  Cycle blocked_prep = 0;        // refresh-blocked cycles after first_cmd
  Cycle blocked_mark = 0;        // end of the last blocked window attributed
  bool is_prefetch = false;
  bool critical = true;         // data-aware criticality hint (X-Mem)
  bool poisoned = false;        // reliability: detected-uncorrectable data

  template <class Ar>
  void fields(Ar& ar) {
    ar(addr, type, core, id, tag, arrive, complete, first_cmd, served, blocked_queue, blocked_prep,
       blocked_mark, is_prefetch, critical, poisoned);
  }
};

using CompletionCallback = std::function<void(const Request&)>;

}  // namespace ima::mem
