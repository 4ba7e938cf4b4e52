// Cross-shard monotonicity: per-client order must survive shard hops.
//
// The sharded service (src/shard/) composes per-shard labels with a global
// epoch. The composed-history timestamp property already holds each
// happens-before pair to compare() — but a mis-composition that collapses
// epochs (the classic bug: forwarding the local label and dropping the epoch
// from the combined value) can slip past the PER-SHARD checks entirely,
// because each shard's local history is still perfectly valid. The damage
// only shows where a client's consecutive calls land on different shards and
// the composed labels stop ordering. This checker isolates exactly those
// pairs: same client, different shards, happens-before — compare must say
// strictly earlier and never the reverse.
//
// What it does NOT guarantee: anything about different clients (that is the
// composed timestamp property's job), or anything within one shard (the
// per-shard property and monotonicity checks own those pairs).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "runtime/history.hpp"
#include "verify/hb_checker.hpp"

namespace stamped::verify {

/// Checks every same-client happens-before pair whose calls were served by
/// different shards (`shard_of(record)` names the serving shard). Reported
/// counters: ordered_pairs_checked counts the cross-shard pairs that carried
/// an obligation; concurrent_pairs stays 0 (same-client calls are sequential
/// by construction). Only same-client pairs are visited: the calls are
/// grouped by pid, and each call scans its own group in index order, so the
/// violations come out ordered by the first call's index, then the second's.
template <class Ts, class Cmp, class ShardOf>
HbReport check_cross_shard_monotonicity(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp,
    ShardOf shard_of) {
  HbReport report;
  // by_pid lists the indices grouped by pid, ascending within each group;
  // group[i] is the [begin, end) range of record i's group in by_pid.
  std::vector<std::size_t> by_pid(records.size());
  for (std::size_t i = 0; i < by_pid.size(); ++i) by_pid[i] = i;
  std::stable_sort(by_pid.begin(), by_pid.end(),
                   [&records](std::size_t a, std::size_t b) {
                     return records[a].pid < records[b].pid;
                   });
  std::vector<std::pair<std::size_t, std::size_t>> group(records.size());
  for (std::size_t begin = 0; begin < by_pid.size();) {
    std::size_t end = begin + 1;
    while (end < by_pid.size() &&
           records[by_pid[end]].pid == records[by_pid[begin]].pid) {
      ++end;
    }
    for (std::size_t g = begin; g < end; ++g) group[by_pid[g]] = {begin, end};
    begin = end;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t g = group[i].first; g < group[i].second; ++g) {
      const std::size_t k = by_pid[g];
      if (i == k) continue;
      const auto& a = records[i];
      const auto& b = records[k];
      if (!a.happens_before(b)) continue;
      if (shard_of(a) == shard_of(b)) continue;
      ++report.ordered_pairs_checked;
      if (!cmp(a.ts, b.ts)) {
        report.violations.push_back(
            "cross-shard hop not monotone (!compare(t1,t2)): " +
            detail::describe_call(a) + " -> " + detail::describe_call(b));
      }
      if (cmp(b.ts, a.ts)) {
        report.violations.push_back(
            "cross-shard hop reversed (compare(t2,t1)): " +
            detail::describe_call(a) + " -> " + detail::describe_call(b));
      }
    }
  }
  return report;
}

}  // namespace stamped::verify
