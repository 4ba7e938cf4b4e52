// FCFS mutual exclusion from a timestamp object — the paper's motivating
// application family (Lamport's bakery, CACM 1974; FCFS fairness).
//
// This is a bakery-style lock whose ticket numbers come from the library's
// long-lived max-scan timestamp object instead of Lamport's ad-hoc
// "1 + max(number[1..n])" (which is itself a timestamp object in disguise —
// the point the paper's introduction makes).
//
// Register layout inside one System<int64> (all registers SWMR except the
// reads):
//   [0, n)    the timestamp object's registers (max-scan)
//   [n, 2n)   choosing[i] in {0,1}
//   [2n, 3n)  number[i]: the ticket (0 = none)
//   [3n, 4n)  in_cs[i] in {0,1}: occupancy flags for the mutual-exclusion
//             checker (written only by i; the observer sums them)
//
// acquire(i):
//   choosing[i] := 1                      (doorway begins)
//   t := getTS()                          (the timestamp object)
//   number[i] := t; choosing[i] := 0      (doorway ends)
//   for each j != i:
//     wait until choosing[j] = 0
//     wait until number[j] = 0 or (number[i], i) < (number[j], j)
// release(i): number[i] := 0
//
// Properties (tested in tests/test_fcfs_lock.cpp):
//   - mutual exclusion: at most one in_cs flag set in any configuration;
//   - FCFS: if p's doorway completes before q's doorway begins, p enters the
//     critical section first;
//   - progress under any fair scheduler.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/maxscan_longlived.hpp"
#include "runtime/coro.hpp"
#include "runtime/history.hpp"
#include "runtime/system.hpp"
#include "util/assert.hpp"

namespace stamped::apps {

/// Register-index arithmetic for the bakery layout.
struct BakeryLayout {
  int n = 0;

  [[nodiscard]] static int registers(int n) { return 4 * n; }
  [[nodiscard]] int ts_reg(int i) const { return i; }
  [[nodiscard]] int choosing_reg(int i) const { return n + i; }
  [[nodiscard]] int number_reg(int i) const { return 2 * n + i; }
  [[nodiscard]] int cs_reg(int i) const { return 3 * n + i; }
};

/// One completed lock acquisition, with the event stamps the FCFS checker
/// needs.
struct BakeryAcquisition {
  int pid = -1;
  int round = 0;
  std::int64_t ticket = 0;
  std::uint64_t doorway_begin = 0;
  std::uint64_t doorway_end = 0;
  std::uint64_t cs_enter = 0;
  std::uint64_t cs_exit = 0;
};

/// Thread-safe log of acquisitions.
class BakeryLog {
 public:
  void record(BakeryAcquisition a) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(a);
  }
  [[nodiscard]] std::vector<BakeryAcquisition> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<BakeryAcquisition> records_;
};

/// One acquire/critical-section/release cycle.
template <class Ctx>
runtime::SubTask<std::int64_t> bakery_cycle(
    Ctx& ctx, BakeryLayout layout, int pid, int round, BakeryLog* log,
    runtime::CallLog<std::int64_t>* ts_log) {
  BakeryAcquisition acq;
  acq.pid = pid;
  acq.round = round;

  // Doorway.
  acq.doorway_begin = ctx.stamp();
  co_await ctx.write(layout.choosing_reg(pid), std::int64_t{1});
  const std::int64_t ticket =
      co_await core::maxscan_getts(ctx, pid, layout.n, round, ts_log);
  acq.ticket = ticket;
  co_await ctx.write(layout.number_reg(pid), ticket);
  co_await ctx.write(layout.choosing_reg(pid), std::int64_t{0});
  acq.doorway_end = ctx.stamp();

  // Entry protocol.
  for (int j = 0; j < layout.n; ++j) {
    if (j == pid) continue;
    for (;;) {
      const std::int64_t choosing = co_await ctx.read(layout.choosing_reg(j));
      if (choosing == 0) break;
    }
    for (;;) {
      const std::int64_t other = co_await ctx.read(layout.number_reg(j));
      if (other == 0) break;
      // Priority order: (ticket, pid) lexicographic, smaller goes first.
      if (ticket < other || (ticket == other && pid < j)) break;
    }
  }

  // Critical section.
  acq.cs_enter = ctx.stamp();
  co_await ctx.write(layout.cs_reg(pid), std::int64_t{1});
  co_await ctx.write(layout.cs_reg(pid), std::int64_t{0});
  acq.cs_exit = ctx.stamp();

  // Release.
  co_await ctx.write(layout.number_reg(pid), std::int64_t{0});
  if (log != nullptr) log->record(acq);
  ctx.note_call_complete();
  co_return ticket;
}

/// Worker: `rounds` acquire/release cycles.
template <class Ctx>
runtime::ProcessTask bakery_worker_program(
    Ctx& ctx, BakeryLayout layout, int pid, int rounds, BakeryLog* log,
    runtime::CallLog<std::int64_t>* ts_log) {
  for (int r = 0; r < rounds; ++r) {
    co_await bakery_cycle(ctx, layout, pid, r, log, ts_log);
  }
}

/// Builds an n-process bakery-lock simulation, `rounds` cycles per process.
inline std::unique_ptr<runtime::System<std::int64_t>> make_bakery_system(
    int n, int rounds, BakeryLog* log,
    runtime::CallLog<std::int64_t>* ts_log = nullptr) {
  STAMPED_ASSERT(n >= 1 && rounds >= 1);
  using Sys = runtime::System<std::int64_t>;
  const BakeryLayout layout{n};
  std::vector<Sys::Program> programs;
  programs.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    programs.push_back([layout, p, rounds, log, ts_log](Sys::Ctx& ctx) {
      return bakery_worker_program(ctx, layout, p, rounds, log, ts_log);
    });
  }
  return std::make_unique<Sys>(BakeryLayout::registers(n), std::int64_t{0},
                               std::move(programs));
}

/// Mutual-exclusion observer: attach to the system; throws on the first
/// configuration with two set in_cs flags.
inline void attach_mutex_checker(runtime::System<std::int64_t>& sys, int n) {
  const BakeryLayout layout{n};
  sys.set_observer([layout](const runtime::System<std::int64_t>& s,
                            const runtime::TraceEntry<std::int64_t>&) {
    int occupants = 0;
    for (int i = 0; i < layout.n; ++i) {
      occupants += s.reg_value(layout.cs_reg(i)) != 0 ? 1 : 0;
    }
    STAMPED_ASSERT_MSG(occupants <= 1,
                       "mutual exclusion violated: " << occupants
                                                     << " in the CS");
  });
}

/// FCFS check: if a's doorway completed before b's doorway began, a must
/// enter the critical section first. Returns a description of the first
/// violation, or empty.
inline std::string check_fcfs(const std::vector<BakeryAcquisition>& log) {
  for (const auto& a : log) {
    for (const auto& b : log) {
      if (a.doorway_end < b.doorway_begin && b.cs_enter < a.cs_enter) {
        std::ostringstream os;
        os << "p" << a.pid << " round " << a.round
           << " finished its doorway first but p" << b.pid << " round "
           << b.round << " entered the CS earlier";
        return os.str();
      }
    }
  }
  return {};
}

/// Critical sections must not overlap in stamp order (a second, log-based
/// mutual-exclusion check that also works for the threaded backend).
inline std::string check_cs_disjoint(
    const std::vector<BakeryAcquisition>& log) {
  for (const auto& a : log) {
    for (const auto& b : log) {
      if (&a == &b) continue;
      const bool disjoint = a.cs_exit < b.cs_enter || b.cs_exit < a.cs_enter;
      if (!disjoint) {
        return "critical sections of p" + std::to_string(a.pid) + " and p" +
               std::to_string(b.pid) + " overlap";
      }
    }
  }
  return {};
}

}  // namespace stamped::apps
