// The timestamp correctness property, checked on recorded histories.
//
// Paper, Section 2: if two getTS() instances g1 and g2 return t1 and t2, and
// g1 happens before g2, then compare(t1, t2) returns true and compare(t2, t1)
// returns false. This is the *only* requirement of the weak timestamp object;
// concurrent calls may return arbitrary (even equal) timestamps.
//
// check_history takes the CallLog recorded by the programs and verifies the
// property over all ordered pairs, plus basic sanity of compare itself
// (irreflexivity and asymmetry on the returned timestamps) and per-process
// monotonicity, in one sort-and-sweep pass over the calls: an O(m log m)
// sort by invocation stamp, then one visit per unordered pair.
//
// Bounded-universe objects (core/bounded_longlived.hpp) satisfy the property
// only for pairs within their recycling window; the pair filter selects the
// ordered pairs that carry an obligation. Irreflexivity and asymmetry are
// universe-wide and stay unconditional.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/history.hpp"
#include "runtime/value.hpp"

namespace stamped::verify {

/// Result of a history check: empty vector means the property holds.
struct HbReport {
  std::vector<std::string> violations;
  std::size_t ordered_pairs_checked = 0;
  std::size_t concurrent_pairs = 0;
  /// Ordered pairs the pair filter released from their obligation (always 0
  /// for the unfiltered checkers).
  std::size_t filtered_pairs = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    os << "ordered_pairs=" << ordered_pairs_checked
       << " concurrent_pairs=" << concurrent_pairs
       << " filtered_pairs=" << filtered_pairs
       << " violations=" << violations.size();
    for (const auto& v : violations) os << "\n  " << v;
    return os.str();
  }
};

namespace detail {

/// "getTS(p0.2)@[3,9)=<ts>" — call coordinates plus the returned timestamp
/// (timestamps render via runtime::value_repr: to_string for arithmetic
/// universes, .repr() otherwise).
template <class Ts>
std::string describe_call(const runtime::CallRecord<Ts>& r) {
  std::ostringstream os;
  os << "getTS(p" << r.pid << "." << r.call_index << ")@[" << r.invoked_at
     << ',' << r.responded_at << ")=" << runtime::value_repr(r.ts);
  return os.str();
}

}  // namespace detail

/// Both reports of one check_history pass.
struct HistoryReport {
  HbReport property;      ///< the timestamp property (plus compare sanity)
  HbReport monotonicity;  ///< per-process monotonicity
};

namespace detail {

/// One call in check_history's sweep order: its interval, pid and index.
/// Trivially constructible, so the inline sort buffer costs nothing to set up.
struct SweepEntry {
  std::uint64_t invoked_at;
  std::uint64_t responded_at;
  std::size_t idx;
  int pid;
};

/// A violation plus its place in the report order: `row` is the first
/// call's index, `col` is 1 + the second call's index (0 for a single-call
/// check), `slot` orders the checks of one pair.
struct KeyedViolation {
  std::size_t row = 0;
  std::size_t col = 0;
  int slot = 0;
  std::string message;
};

/// Records the violation `what` a `sep` b at (row, col, slot). The message
/// builders live in these functions so that check_history's pair loop
/// holds only the stamp tests, the compares and the counters.
template <class Ts>
void add_pair_violation(
    std::vector<KeyedViolation>& found, std::size_t row, std::size_t col,
    int slot, const char* what, const runtime::CallRecord<Ts>& a,
    const char* sep, const runtime::CallRecord<Ts>& b) {
  found.push_back({row, col, slot,
                   what + describe_call(a) + sep + describe_call(b)});
}

template <class Ts>
void add_monotonicity_violation(
    std::vector<KeyedViolation>& found, std::size_t row, std::size_t col,
    const runtime::CallRecord<Ts>& a, const runtime::CallRecord<Ts>& b) {
  std::ostringstream os;
  os << "process p" << a.pid << " calls " << a.call_index << " and "
     << b.call_index << " not increasing: !compare("
     << runtime::value_repr(a.ts) << ", " << runtime::value_repr(b.ts)
     << ") — " << describe_call(a) << " -> " << describe_call(b);
  found.push_back({row, col, 0, os.str()});
}

/// Appends `found` to `out` in (row, col, slot) order.
inline void append_in_order(std::vector<KeyedViolation>& found,
                            std::vector<std::string>& out) {
  std::sort(found.begin(), found.end(),
            [](const KeyedViolation& a, const KeyedViolation& b) {
              return std::tie(a.row, a.col, a.slot) <
                     std::tie(b.row, b.col, b.slot);
            });
  for (KeyedViolation& v : found) out.push_back(std::move(v.message));
}

}  // namespace detail

/// Checks the timestamp property and per-process monotonicity of `records`
/// in one pass; `property` and `monotonicity` select which reports to fill.
/// cmp(a, b) is the object's compare(a, b), and an ordered pair (a, b)
/// carries an obligation only when `pair_filter(a, b)` is true.
///
/// Timestamp property: compare is irreflexive on every returned timestamp;
/// every obligated happens-before pair compares forward and not backward;
/// no concurrent pair compares both ways. Counters: obligated ordered
/// pairs, unordered concurrent pairs, and ordered pairs the filter released.
///
/// Per-process monotonicity: every obligated happens-before pair of one
/// process compares forward (a corollary of the property, reported apart
/// for sharper messages; each message carries both timestamps). Same-pid
/// pairs are ordered by happens-before, not call_index: a restarted process
/// (crash/restart adversary) begins a fresh program whose call_index
/// restarts at 0, yet its post-restart calls still happen after its
/// pre-crash ones. For crash-free histories the two orders coincide.
///
/// The calls are sorted by invocation stamp and each unordered pair is
/// visited once. When x is invoked no later than y, y can happen before x
/// only if y responded before it was invoked; for well-formed records the
/// second of the two stamp comparisons per pair is therefore always false
/// and predicted, and a malformed pair may come out ordered both ways, as
/// the relation says. Both reports share the compare result of a
/// same-process pair. Nothing is inferred by transitivity: every obligated
/// pair is compared. Cost: an O(m log m) sort plus one visit per pair; no
/// heap allocation for up to 32 calls while no violation is found.
/// Violations are reported in index order: by the first call's index, then
/// the second's, then the check.
template <class Ts, class Cmp, class PairFilter>
HistoryReport check_history(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp,
    PairFilter pair_filter, bool property, bool monotonicity) {
  HistoryReport out;
  if (!property && !monotonicity) return out;
  const std::size_t m = records.size();
  constexpr std::size_t kInline = 32;
  std::array<detail::SweepEntry, kInline> inline_order;
  std::vector<detail::SweepEntry> heap_order;
  detail::SweepEntry* order = inline_order.data();
  if (m > kInline) {
    heap_order.resize(m);
    order = heap_order.data();
  }
  for (std::size_t i = 0; i < m; ++i) {
    order[i] = {records[i].invoked_at, records[i].responded_at, i,
                records[i].pid};
  }
  std::sort(order, order + m,
            [](const detail::SweepEntry& a, const detail::SweepEntry& b) {
              return a.invoked_at < b.invoked_at ||
                     (a.invoked_at == b.invoked_at && a.idx < b.idx);
            });

  std::vector<detail::KeyedViolation> prop_found;
  std::vector<detail::KeyedViolation> mono_found;
  std::size_t prop_ordered = 0;
  std::size_t prop_filtered = 0;
  std::size_t concurrent = 0;
  std::size_t mono_ordered = 0;
  std::size_t mono_filtered = 0;
  // a happens before b.
  const auto ordered = [&](const detail::SweepEntry& ea,
                           const detail::SweepEntry& eb) {
    const bool same_pid = monotonicity && ea.pid == eb.pid;
    if (!property && !same_pid) return;
    const auto& a = records[ea.idx];
    const auto& b = records[eb.idx];
    if (!pair_filter(a, b)) {
      prop_filtered += property ? 1 : 0;
      mono_filtered += same_pid ? 1 : 0;
      return;
    }
    const bool forward = cmp(a.ts, b.ts);
    if (property) {
      ++prop_ordered;
      if (!forward) {
        detail::add_pair_violation(prop_found, ea.idx, eb.idx + 1, 0,
                                   "ordered pair but !compare(t1,t2): ", a,
                                   " -> ", b);
      }
      if (cmp(b.ts, a.ts)) {
        detail::add_pair_violation(prop_found, ea.idx, eb.idx + 1, 1,
                                   "ordered pair but compare(t2,t1): ", a,
                                   " -> ", b);
      }
    }
    if (same_pid) {
      ++mono_ordered;
      if (!forward) {
        detail::add_monotonicity_violation(mono_found, ea.idx, eb.idx + 1, a,
                                           b);
      }
    }
  };

  for (std::size_t xi = 0; xi < m; ++xi) {
    const detail::SweepEntry& x = order[xi];
    if (property && cmp(records[x.idx].ts, records[x.idx].ts)) {
      prop_found.push_back({x.idx, 0, 0,
                            "compare(t,t) true for " +
                                detail::describe_call(records[x.idx])});
    }
    for (std::size_t yi = xi + 1; yi < m; ++yi) {
      const detail::SweepEntry& y = order[yi];
      const bool x_first = x.responded_at < y.invoked_at;
      const bool y_first = y.responded_at < x.invoked_at;
      if (x_first) ordered(x, y);
      if (y_first) ordered(y, x);
      if (!x_first && !y_first && property) {
        ++concurrent;
        // No ordering requirement, but compare must not claim both
        // directions simultaneously (it is a strict order on values).
        const std::size_t lo = std::min(x.idx, y.idx);
        const std::size_t hi = std::max(x.idx, y.idx);
        const auto& a = records[lo];
        const auto& b = records[hi];
        if (cmp(a.ts, b.ts) && cmp(b.ts, a.ts)) {
          detail::add_pair_violation(prop_found, lo, hi + 1, 0,
                                     "compare true both ways: ", a, " || ",
                                     b);
        }
      }
    }
  }
  out.property.ordered_pairs_checked = prop_ordered;
  out.property.filtered_pairs = prop_filtered;
  out.property.concurrent_pairs = concurrent;
  out.monotonicity.ordered_pairs_checked = mono_ordered;
  out.monotonicity.filtered_pairs = mono_filtered;
  detail::append_in_order(prop_found, out.property.violations);
  detail::append_in_order(mono_found, out.monotonicity.violations);
  return out;
}

/// The timestamp property alone (check_history's property report).
template <class Ts, class Cmp, class PairFilter>
HbReport check_timestamp_property_filtered(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp,
    PairFilter pair_filter) {
  return check_history(records, cmp, pair_filter, true, false).property;
}

/// The unconditional property: every ordered pair carries an obligation.
template <class Ts, class Cmp>
HbReport check_timestamp_property(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp) {
  return check_timestamp_property_filtered(
      records, cmp,
      [](const runtime::CallRecord<Ts>&, const runtime::CallRecord<Ts>&) {
        return true;
      });
}

/// Per-process monotonicity alone (check_history's monotonicity report).
template <class Ts, class Cmp, class PairFilter>
HbReport check_per_process_monotonicity_filtered(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp,
    PairFilter pair_filter) {
  return check_history(records, cmp, pair_filter, false, true).monotonicity;
}

/// Unconditional per-process monotonicity.
template <class Ts, class Cmp>
HbReport check_per_process_monotonicity(
    const std::vector<runtime::CallRecord<Ts>>& records, Cmp cmp) {
  return check_per_process_monotonicity_filtered(
      records, cmp,
      [](const runtime::CallRecord<Ts>&, const runtime::CallRecord<Ts>&) {
        return true;
      });
}

}  // namespace stamped::verify
