// The benchmark's four workloads and the correctness gate every scenario run
// must pass.
//
// A workload is a fixed list of scenarios generated from the command-line
// seed; one round runs the whole list once through api::Harness, closed loop
// from this process. The program under test only ever sees the generated
// ScenarioSpecs. Why each workload exists is recorded in BENCHMARK.json.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/harness.hpp"
#include "api/registry.hpp"

namespace perfbench {

namespace api = stamped::api;

/// One scenario of a workload: what to run and how to drive and check it.
struct Scenario {
  std::string label;
  /// Stable short name used in per-layer metric names (model-check models).
  std::string key;
  const api::TimestampFamily* family = nullptr;
  api::ScenarioSpec spec;
  api::ScheduleSource source;
  api::Checkers checkers;

  [[nodiscard]] bool native() const {
    return spec.backend == api::Backend::kNative;
  }
  [[nodiscard]] bool exhaustive() const {
    return source.kind == api::ScheduleSource::Kind::kExhaustive;
  }
  [[nodiscard]] bool checked() const {
    return checkers.timestamp_property || checkers.per_process_monotonicity;
  }
  /// getTS calls one complete execution of this scenario makes.
  [[nodiscard]] std::uint64_t calls_per_execution() const {
    return static_cast<std::uint64_t>(spec.total_calls());
  }
};

struct Workload {
  std::string name;
  /// Tail percentile reported as round_ms_tail. Chosen per workload so that
  /// a full-length run has at least ten rounds beyond it.
  int tail_percentile = 90;
  std::vector<Scenario> scenarios;
};

/// Worker threads for native runs and the explorer: at most 4, at most the
/// machine's cores.
inline int worker_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

/// The model-check workload's models: full DFS on the first three, sleep-set
/// plus persistent-set reduction on the last two. Tiny (self-test) mode
/// explores smaller models under the same keys.
struct ModelDef {
  const char* key;
  const char* family;
  int n, calls, tiny_n, tiny_calls;
  bool por;
};

inline const std::vector<ModelDef>& model_defs() {
  static const std::vector<ModelDef> defs = {
      {"maxscan-n2-c3", "maxscan", 2, 3, 2, 1, false},
      {"simple-oneshot-n3", "simple-oneshot", 3, 1, 2, 1, false},
      {"sqrt-oneshot-n2", "sqrt-oneshot", 2, 1, 2, 1, false},
      {"simple-oneshot-n4-por", "simple-oneshot", 4, 1, 2, 1, true},
      {"maxscan-n2-c4-por", "maxscan", 2, 4, 2, 2, true},
  };
  return defs;
}

namespace detail {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Appends scenarios, giving each its own seed derived from the workload
/// seed and its position.
class Builder {
 public:
  Builder(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  /// Scales a size down in tiny (self-test) mode, never below `floor`.
  [[nodiscard]] int size(int full, int floor = 1) const {
    return tiny_ ? std::max(floor, full / 50) : full;
  }

  void add(const std::string& fam, api::ScenarioSpec spec,
           api::ScheduleSource source, api::Checkers checkers,
           const std::string& key = "") {
    Scenario sc;
    sc.key = key;
    sc.family = &api::family(fam);
    spec.seed = splitmix64(seed_ ^ splitmix64(out_.size() + 1));
    std::ostringstream label;
    label << fam << " n=" << spec.n;
    if (spec.calls_per_process > 1) label << "x" << spec.calls_per_process;
    if (spec.sharded()) label << " shards=" << spec.shard.shards;
    label << " " << source.name;
    sc.label = label.str();
    sc.spec = spec;
    sc.source = std::move(source);
    sc.checkers = checkers;
    out_.push_back(std::move(sc));
  }

  [[nodiscard]] std::vector<Scenario> take() { return std::move(out_); }

 private:
  std::uint64_t seed_;
  bool tiny_;
  std::vector<Scenario> out_;
};

inline api::ScenarioSpec native_spec(int n, int calls) {
  api::ScenarioSpec spec;
  spec.n = n;
  spec.calls_per_process = calls;
  spec.backend = api::Backend::kNative;
  spec.native_threads = worker_threads();
  return spec;
}

inline api::ScenarioSpec sim_spec(int n, int calls) {
  api::ScenarioSpec spec;
  spec.n = n;
  spec.calls_per_process = calls;
  return spec;
}

}  // namespace detail

/// Builds workload `name` from `seed`. `tiny` shrinks every size for the
/// self-test. Throws std::invalid_argument on an unknown name.
inline Workload make_workload(const std::string& name, std::uint64_t seed,
                              bool tiny) {
  using detail::native_spec;
  using detail::sim_spec;
  detail::Builder b(seed, tiny);
  Workload w;
  w.name = name;
  if (name == "native-getts") {
    w.tail_percentile = 95;
    // Long-lived half: one instance amortized over many calls.
    b.add("maxscan", native_spec(4, b.size(20000)), api::native_os(),
          api::Checkers::none());
    b.add("fetchadd", native_spec(4, b.size(20000)), api::native_os(),
          api::Checkers::none());
    b.add("bounded", native_spec(4, b.size(5000)), api::native_os(),
          api::Checkers::none());
    // One-shot half: construction and thread spawn every 64 calls.
    for (const char* fam : {"simple-oneshot", "sqrt-oneshot",
                            "growing-oneshot"}) {
      for (int i = 0; i < b.size(20); ++i) {
        b.add(fam, native_spec(64, 1), api::native_os(),
              api::Checkers::none());
      }
    }
  } else if (name == "native-sharded") {
    // Four fresh instances of each scenario per round (about 80 ms): with
    // one of each (about 19 ms) the p99 round, driven by lease steals, swung
    // between 22 and 37 ms from run to run on a 4-core Xeon VM.
    w.tail_percentile = 95;
    for (int copy = 0; copy < 4; ++copy) {
      for (const char* fam : {"maxscan", "fetchadd"}) {
        api::ScenarioSpec spec = native_spec(32, b.size(500));
        spec.shard.shards = 4;  // every other ShardSpec field at its default
        b.add(fam, spec, api::native_os(), api::Checkers::none());
      }
    }
  } else if (name == "sim-checked") {
    w.tail_percentile = 80;
    for (const char* fam : {"maxscan", "bounded", "fetchadd"}) {
      b.add(fam, sim_spec(8, b.size(200, 2)), api::seeded_random(), {});
    }
    stamped::runtime::CrashPlan crash;
    crash.crashes = 2;
    crash.restart = true;
    b.add("maxscan", sim_spec(8, b.size(200, 2)), api::crash_restart(crash),
          {});
    b.add("maxscan", sim_spec(8, b.size(200, 2)), api::jittered(), {});
    b.add("simple-oneshot", sim_spec(b.size(256, 4), 1), api::seeded_random(),
          {});
    b.add("sqrt-oneshot", sim_spec(b.size(256, 4), 1), api::seeded_random(),
          {});
    b.add("growing-oneshot", sim_spec(b.size(128, 4), 1),
          api::seeded_random(), {});
    for (const char* fam : {"maxscan", "fetchadd"}) {
      api::ScenarioSpec spec = sim_spec(16, b.size(50, 2));
      spec.shard.shards = 4;
      b.add(fam, spec, api::seeded_random(), {});
    }
  } else if (name == "model-check") {
    w.tail_percentile = 90;
    const auto opts_for = [](bool por) {
      stamped::verify::ExploreOptions opts;
      opts.por = por;
      opts.persistent = por;
      return opts;
    };
    for (const ModelDef& m : model_defs()) {
      api::ScenarioSpec spec =
          sim_spec(tiny ? m.tiny_n : m.n, tiny ? m.tiny_calls : m.calls);
      spec.explore_threads = worker_threads();
      b.add(m.family, spec, api::exhaustive_explorer(opts_for(m.por)), {},
            m.key);
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.scenarios = b.take();
  return w;
}

/// The correctness gate. Applies every check to each scenario report and
/// keeps the counts the result line reports. Simulated and explored
/// scenarios must also reproduce their first run's counters exactly.
class Gate {
 public:
  /// Returns true when `rep` passes; records the first failures verbatim.
  bool check(std::size_t scenario_idx, const Scenario& sc,
             const api::ScenarioReport& rep) {
    ++attempted_;
    const std::string why = failure(sc, rep, scenario_idx);
    if (why.empty()) return true;
    ++failed_;
    if (messages_.size() < 8) messages_.push_back(sc.label + ": " + why);
    return false;
  }

  /// Records a failure found outside a scenario report (a layer probe).
  void fail(const std::string& what) {
    ++attempted_;
    ++failed_;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  void pass() { ++attempted_; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  using Counters = std::tuple<std::uint64_t, std::uint64_t, int,
                              std::uint64_t, std::uint64_t>;

  std::string failure(const Scenario& sc, const api::ScenarioReport& rep,
                      std::size_t idx) {
    if (!rep.ok()) return "violation: " + rep.violations.front();
    if (!rep.all_finished) return "not all processes finished";
    if (sc.exhaustive()) {
      if (rep.executions == 0 || rep.budget_exhausted) {
        return "exploration incomplete";
      }
    } else if (sc.source.kind == api::ScheduleSource::Kind::kCrash) {
      // Restarted victims rerun their program from a fresh frame, so a
      // crash run completes at least every call, some of them twice.
      if (!rep.survivors_finished ||
          rep.calls < static_cast<std::uint64_t>(sc.spec.total_calls())) {
        return "crash run lost calls";
      }
    } else if (rep.calls !=
               static_cast<std::uint64_t>(sc.spec.total_calls())) {
      return "calls " + std::to_string(rep.calls) + " != " +
             std::to_string(sc.spec.total_calls());
    }
    if (sc.native()) {
      const std::uint64_t split =
          std::accumulate(rep.native_thread_calls.begin(),
                          rep.native_thread_calls.end(), std::uint64_t{0});
      if (split != rep.calls) return "per-thread call split != calls";
      if (rep.retired_nodes != 0) return "retired nodes after quiesce";
      return "";
    }
    // Same scenario and seed => identical counters on every run.
    const Counters now{rep.steps, rep.calls, rep.registers_written,
                       rep.nodes, rep.executions};
    const auto [it, fresh] = first_counters_.emplace(idx, now);
    if (!fresh && it->second != now) return "counters differ from first run";
    return "";
  }

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
  std::map<std::size_t, Counters> first_counters_;
};

}  // namespace perfbench
