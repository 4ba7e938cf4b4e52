// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <file>] [--source-id <id>]
//
// Runs one workload (workloads.hpp) closed loop from this process: set-up,
// then rounds over the workload's fixed scenario list for --seconds, then the
// correctness checks that are too slow for the timed region. With --trace 0
// it reports the end-to-end metrics; with --trace 1 it reports the per-layer
// metrics instead, from spans around calls into each layer (trace.hpp), the
// paired calls that separate layers the harness fuses, and the micro-loops of
// ledger.hpp, and writes the spans as a Chrome trace-event file. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when a check failed (the result
// line is still printed), 2 on bad usage or an internal error, 3 when the
// binary is not an optimized, sanitizer-free build.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 5;
/// Paired-call passes of the traced decomposition; per-scenario medians.
constexpr int kDecomposePasses = 3;
/// Seconds of busy-looping on every worker thread before set-up starts. On
/// a 4-core Xeon VM the host spreads a process's busy threads over physical
/// cores only after about 1.5 s of load; measuring earlier mixes two machine
/// states (uncontended work 4x slower, contended atomics 3x faster).
constexpr double kWarmupSeconds = 3.0;
/// The timed loop never runs past this, whatever --seconds asks for, so a
/// run ends well inside three minutes.
constexpr double kMaxTimedSeconds = 120.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
  std::string source_id = "unknown";
};

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
      if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opt.trace = v == "1";
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--source-id") {
      opt.source_id = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (opt.trace_out.empty()) {
    opt.trace_out = "trace-" + opt.workload + "-" + std::to_string(opt.seed) +
                    ".json";
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Machine fingerprint and build guard
// ---------------------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

constexpr bool kNdebug =
#if defined(NDEBUG)
    true;
#else
    false;
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

constexpr bool kSanitized =
#if defined(PERFBENCH_SANITIZED)
    true;
#else
    false;
#endif

using KeyValues = std::vector<std::pair<std::string, std::string>>;

KeyValues fingerprint(const Options& opt) {
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", cpu_model()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"optimized", kOptimized ? "1" : "0"},
      {"ndebug", kNdebug ? "1" : "0"},
      {"sanitizers", kSanitized ? "on" : "none"},
      {"source", opt.source_id},
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", std::to_string(opt.seconds)},
      {"tiny", opt.tiny ? "1" : "0"},
      {"worker_threads", std::to_string(worker_threads())},
  };
}

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

struct RoundStats {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t executions = 0;
  double native_seconds = 0.0;  ///< sum of run_native spawn-to-join times
};

/// One pass over the workload's scenario list. Every report goes through the
/// gate; `keep` (traced rounds) collects the reports for the layer metrics.
RoundStats run_round(const Workload& w, Gate& gate, Tracer& tr,
                     std::vector<api::ScenarioReport>* keep) {
  const api::Harness harness;
  RoundStats rs;
  const Tracer::Scope round(tr, "round");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
    const Scenario& sc = w.scenarios[i];
    api::ScenarioReport rep;
    {
      const Tracer::Scope span(tr, "scenario", static_cast<std::int64_t>(i));
      rep = harness.run_scenario(*sc.family, sc.spec, sc.source, sc.checkers);
    }
    gate.check(i, sc, rep);
    rs.calls += sc.exhaustive() ? rep.executions * sc.calls_per_execution()
                                : rep.calls;
    rs.executions += sc.exhaustive() ? rep.executions : 1;
    rs.native_seconds += rep.native_elapsed_seconds;
    if (keep != nullptr) keep->push_back(std::move(rep));
  }
  rs.seconds = seconds_since(t0);
  return rs;
}

/// Rounds a run needs so that `percentile` has ten rounds beyond it.
std::size_t rounds_for_tail(int percentile) {
  return static_cast<std::size_t>(
      std::ceil(10.0 * 100.0 / (100.0 - percentile))) + 1;
}

/// Nearest-rank percentile.
double percentile_of(std::vector<double> v, int p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct EndToEnd {
  double calls_per_s = 0, executions_per_s = 0, p50_ms = 0, tail_ms = 0;
};

EndToEnd summarize(const std::vector<RoundStats>& rounds, int tail_p) {
  EndToEnd e;
  double secs = 0;
  std::uint64_t calls = 0, execs = 0;
  std::vector<double> ms;
  for (const RoundStats& r : rounds) {
    secs += r.seconds;
    calls += r.calls;
    execs += r.executions;
    ms.push_back(r.seconds * 1e3);
  }
  e.calls_per_s = static_cast<double>(calls) / secs;
  e.executions_per_s = static_cast<double>(execs) / secs;
  e.p50_ms = median(ms);
  e.tail_ms = percentile_of(ms, tail_p);
  return e;
}

// ---------------------------------------------------------------------------
// Checks outside the timed region
// ---------------------------------------------------------------------------

/// Native histories are checked on a sample: the first scenario of each
/// family in the workload, rerun with the default checkers and at most
/// 2 000 calls (a checked 8 000-call native history costs about 0.58 s
/// against 1.7 ms of execution, which is why the timed loop runs
/// unchecked). Explored models are rerun on one worker: their counters must
/// match the four-worker runs exactly.
void post_checks(const Workload& w, Gate& gate, Tracer& tr) {
  const Tracer::Scope span(tr, "checks");
  const api::Harness harness;
  std::vector<std::string> sampled;
  for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
    const Scenario& sc = w.scenarios[i];
    if (sc.native()) {
      const std::string fam = sc.family->name;
      if (std::find(sampled.begin(), sampled.end(), fam) != sampled.end()) {
        continue;
      }
      sampled.push_back(fam);
      Scenario sample = sc;
      sample.spec.calls_per_process = std::max(
          1, std::min(sc.spec.calls_per_process, 2000 / sc.spec.n));
      sample.checkers = api::Checkers{};
      gate.check(i, sample,
                 harness.run_scenario(*sample.family, sample.spec,
                                      sample.source, sample.checkers));
    } else if (sc.exhaustive()) {
      api::ScenarioSpec one = sc.spec;
      one.explore_threads = 1;
      gate.check(i, sc,
                 harness.run_scenario(*sc.family, one, sc.source,
                                      sc.checkers));
    }
  }
}

// ---------------------------------------------------------------------------
// Traced decomposition: paired calls per scenario
// ---------------------------------------------------------------------------

/// Median durations of one scenario's paired calls, plus the reports.
struct Paired {
  double make = 0;         ///< api.make* alone
  double engine = 0;       ///< native.run, or run_scenario with no checkers
  double checked = 0;      ///< run_scenario with the scenario's checkers
  double counts_only = 0;  ///< run_scenario, no checkers, kCountsOnly
  double one_worker = 0;   ///< explorer on one worker, checked
  api::ScenarioReport report;  ///< checked run (unchecked for native)
};

api::ScenarioReport native_report(const api::NativeRunStats& st) {
  api::ScenarioReport rep;
  rep.all_finished = true;
  rep.survivors_finished = true;
  rep.calls = st.calls;
  rep.native_thread_calls = st.per_thread_calls;
  rep.retired_nodes = st.retired_nodes;
  rep.native_elapsed_seconds = st.elapsed_seconds;
  return rep;
}

/// True for the sim-checked scenarios that give each family's step cost:
/// unsharded, under the seeded random driver.
bool plain_random_sim(const Scenario& sc) {
  return !sc.native() && !sc.spec.sharded() && !sc.exhaustive() &&
         sc.source.name == "random";
}

std::vector<Paired> decompose(const Workload& w, Gate& gate, Tracer& tr,
                              int passes) {
  const api::Harness harness;
  std::vector<std::vector<Paired>> runs(w.scenarios.size());
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
      const Scenario& sc = w.scenarios[i];
      const api::TimestampFamily& fam = *sc.family;
      const auto id = static_cast<std::int64_t>(i);
      const Tracer::Scope scenario(tr, "scenario", id);
      Paired p;
      const auto timed = [&](const char* name, auto&& fn) {
        const Tracer::Scope span(tr, name);
        const auto t0 = Clock::now();
        fn();
        return seconds_since(t0);
      };
      // Instances outlive their make span, so it times construction alone.
      std::unique_ptr<api::FamilyInstance> inst;
      std::unique_ptr<stamped::shard::ShardedInstance> sharded;
      const auto make = [&] {
        if (sc.spec.sharded()) {
          sharded = fam.make_sharded(sc.spec);
        } else if (sc.native()) {
          inst = fam.make_native(sc.spec);
        } else {
          inst = fam.make(sc.spec);
        }
      };
      p.make = timed(sc.spec.sharded() ? "api.make_sharded"
                     : sc.native()     ? "api.make_native"
                                       : "api.make",
                     make);
      if (sc.native()) {
        // Native: run and harvest the instance just built.
        api::NativeRunStats st;
        p.engine = timed("native.run", [&] {
          st = sharded ? sharded->run_native(sc.spec.native_threads)
                       : inst->run_native(sc.spec.native_threads);
        });
        timed("api.calls", [&] {
          (void)(sharded ? sharded->composed_calls() : inst->calls());
        });
        p.checked = p.engine;  // the timed loop runs native scenarios unchecked
        p.report = native_report(st);
        gate.check(i, sc, p.report);
      } else {
        api::ScenarioReport unchecked;
        p.engine = timed(sc.exhaustive() ? "explore.run" : "runtime.drive",
                         [&] {
                           unchecked = harness.run_scenario(
                               fam, sc.spec, sc.source, api::Checkers::none());
                         });
        gate.check(i, sc, unchecked);
        p.checked = timed("verify.checked", [&] {
          p.report = harness.run_scenario(fam, sc.spec, sc.source, sc.checkers);
        });
        gate.check(i, sc, p.report);
        if (sc.exhaustive()) {
          api::ScenarioSpec one = sc.spec;
          one.explore_threads = 1;
          api::ScenarioReport rep;
          p.one_worker = timed("explore.run_1worker", [&] {
            rep = harness.run_scenario(fam, one, sc.source, sc.checkers);
          });
          gate.check(i, sc, rep);
        }
        if (plain_random_sim(sc) && fam.name == "maxscan") {
          api::ScenarioSpec counts = sc.spec;
          counts.recording = stamped::runtime::RecordingMode::kCountsOnly;
          api::ScenarioReport rep;
          p.counts_only = timed("runtime.drive_counts_only", [&] {
            rep = harness.run_scenario(fam, counts, sc.source,
                                       api::Checkers::none());
          });
          gate.check(i + w.scenarios.size(), sc, rep);
        }
      }
      runs[i].push_back(std::move(p));
    }
  }
  std::vector<Paired> out;
  for (auto& r : runs) {
    const auto med = [&r](double Paired::*field) {
      std::vector<double> v;
      for (const Paired& p : r) v.push_back(p.*field);
      return median(v);
    };
    Paired m;
    m.make = med(&Paired::make);
    m.engine = med(&Paired::engine);
    m.checked = med(&Paired::checked);
    m.counts_only = med(&Paired::counts_only);
    m.one_worker = med(&Paired::one_worker);
    m.report = std::move(r.back().report);
    out.push_back(std::move(m));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"calls_per_s", "1/s"},
      {"executions_per_s", "1/s"}, {"round_ms_p50", "ms"},
      {"round_ms_tail", "ms"},   {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"atomicmem.raw_fetch_add_ns", "ns"},
        {"atomicmem.read_ns", "ns"},
        {"atomicmem.write_ns", "ns"},
        {"atomicmem.fetch_add_ns", "ns"},
        {"atomicmem.node_write_ns", "ns"},
        {"atomicmem.retired_after_quiesce", "count"},
        {"native.ctx_read_ns", "ns"},
        {"native.ctx_over_mem_x", "x"},
        {"native.run_fixed_us", "us"},
        {"native.exec_frac", "ratio"},
        {"snapshot.double_collect_ns_per_reg", "ns"},
        {"snapshot.versioned_collect_ns_per_reg", "ns"},
    };
    for (const api::TimestampFamily& f : api::registry()) {
      d.push_back({"core.getts_solo_ns." + f.name, "ns"});
      d.push_back({"core.getts_4t_ns." + f.name, "ns"});
      d.push_back({"core.contention_x." + f.name, "x"});
    }
    d.push_back({"core.tax_x.fetchadd", "x"});
    for (const char* f : {"maxscan", "fetchadd"}) {
      d.push_back({std::string("shard.route_epoch_ns.") + f, "ns"});
    }
    d.insert(d.end(), {{"shard.passes_per_call", "1/call"},
                       {"shard.avg_batch", "calls"},
                       {"shard.max_batch", "calls"},
                       {"shard.lease_expiries_per_kcall", "1/kcall"},
                       {"shard.lease_steals_per_kcall", "1/kcall"},
                       {"shard.claim_losses_per_kcall", "1/kcall"}});
    for (const api::TimestampFamily& f : api::registry()) {
      d.push_back({"runtime.step_ns." + f.name, "ns"});
      d.push_back({"runtime.steps_per_call." + f.name, "steps/call"});
    }
    d.insert(d.end(), {{"runtime.recording_ns_per_step", "ns"},
                       {"verify.check_ns_per_call", "ns"},
                       {"verify.check_ns_per_pair", "ns"},
                       {"verify.sharded_check_ns_per_call", "ns"},
                       {"verify.check_frac", "ratio"},
                       {"verify.check_us_per_execution", "us"}});
    for (const ModelDef& m : model_defs()) {
      const std::string k = m.key;
      d.insert(d.end(), {{"explore.ns_per_node." + k, "ns"},
                         {"explore.parallel_speedup." + k, "x"},
                         {"explore.nodes." + k, "count"},
                         {"explore.executions." + k, "count"},
                         {"explore.sleep_pruned." + k, "count"},
                         {"explore.persistent_deferred." + k, "count"}});
    }
    d.insert(d.end(), {{"api.registry_ms", "ms"},
                       {"api.make_us.sim", "us"},
                       {"api.make_native_us", "us"},
                       {"api.make_sharded_us", "us"},
                       {"trace.overhead_frac", "ratio"}});
    return d;
  }();
  return defs;
}

/// Per-layer values from the traced rounds' reports and the decomposition.
void derive_layers(const Workload& w, const std::vector<Paired>& paired,
                   const std::vector<api::ScenarioReport>& traced_reports,
                   const std::vector<RoundStats>& traced_rounds,
                   LayerValues& out) {
  const auto ratio = [](double a, double b) { return b != 0 ? a / b : 0.0; };
  double check = 0, total = 0, check_calls = 0, pairs = 0, check_plain = 0;
  double check_sharded = 0, sharded_calls = 0, execs = 0, check_explore = 0;
  std::vector<double> make_sim, make_native, make_sharded;
  for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
    const Scenario& sc = w.scenarios[i];
    const Paired& p = paired[i];
    const api::ScenarioReport& r = p.report;
    const double c = sc.checked() ? p.checked - p.engine : 0.0;
    check += c;
    total += sc.native() ? p.make + p.engine : p.checked;
    (sc.spec.sharded() ? make_sharded
                       : sc.native() ? make_native : make_sim)
        .push_back(p.make * 1e6);
    if (sc.exhaustive()) {
      check_explore += c;
      execs += static_cast<double>(r.executions);
      const std::string k = sc.key;
      out["explore.ns_per_node." + k] =
          ratio(p.checked * 1e9, static_cast<double>(r.nodes));
      out["explore.parallel_speedup." + k] = ratio(p.one_worker, p.checked);
      out["explore.nodes." + k] = static_cast<double>(r.nodes);
      out["explore.executions." + k] = static_cast<double>(r.executions);
      out["explore.sleep_pruned." + k] = static_cast<double>(r.sleep_pruned);
      out["explore.persistent_deferred." + k] =
          static_cast<double>(r.persistent_deferred);
    } else if (!sc.native() && sc.checked()) {
      if (sc.spec.sharded()) {
        check_sharded += c;
        sharded_calls += static_cast<double>(r.calls);
      } else {
        check_plain += c;
        check_calls += static_cast<double>(r.calls);
        pairs += static_cast<double>(r.ordered_pairs + r.concurrent_pairs +
                                     r.filtered_pairs);
      }
    }
    if (plain_random_sim(sc)) {
      const std::string f = sc.family->name;
      const auto steps = static_cast<double>(r.steps);
      out["runtime.step_ns." + f] = ratio((p.engine - p.make) * 1e9, steps);
      out["runtime.steps_per_call." + f] =
          ratio(steps, static_cast<double>(r.calls));
      if (f == "maxscan") {
        out["runtime.recording_ns_per_step"] =
            ratio((p.engine - p.counts_only) * 1e9, steps);
      }
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  out["api.make_us.sim"] = mean(make_sim);
  out["api.make_native_us"] = mean(make_native);
  out["api.make_sharded_us"] = mean(make_sharded);
  out["verify.check_frac"] = ratio(check, total);
  out["verify.check_ns_per_call"] = ratio(check_plain * 1e9, check_calls);
  out["verify.check_ns_per_pair"] = ratio(check_plain * 1e9, pairs);
  out["verify.sharded_check_ns_per_call"] =
      ratio(check_sharded * 1e9, sharded_calls);
  out["verify.check_us_per_execution"] = ratio(check_explore * 1e6, execs);

  // Native share of scenario time, from the traced timed rounds.
  double native_s = 0, round_s = 0;
  for (const RoundStats& r : traced_rounds) {
    native_s += r.native_seconds;
    round_s += r.seconds;
  }
  out["native.exec_frac"] = ratio(native_s, round_s);

  // Combiner and lease counters of the native sharded service.
  double calls = 0, passes = 0, combined = 0, max_batch = 0, expiries = 0,
         steals = 0, losses = 0;
  for (const api::ScenarioReport& r : traced_reports) {
    if (r.shards == 0 || r.native_threads == 0) continue;
    calls += static_cast<double>(r.calls);
    passes += static_cast<double>(r.combiner_passes);
    combined += static_cast<double>(r.combined_calls);
    max_batch = std::max(max_batch, static_cast<double>(r.max_batch));
    expiries += static_cast<double>(r.lease_expiries);
    steals += static_cast<double>(r.lease_steals);
    losses += static_cast<double>(r.claim_losses);
  }
  out["shard.passes_per_call"] = ratio(passes, calls);
  out["shard.avg_batch"] = ratio(combined, passes);
  out["shard.max_batch"] = max_batch;
  out["shard.lease_expiries_per_kcall"] = ratio(expiries * 1e3, calls);
  out["shard.lease_steals_per_kcall"] = ratio(steals * 1e3, calls);
  out["shard.claim_losses_per_kcall"] = ratio(losses * 1e3, calls);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Reported {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

void print_result(const Gate& gate, const std::vector<Reported>& metrics) {
  for (const Reported& m : metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  for (const std::string& msg : gate.messages()) {
    std::cout << "FAILED " << msg << '\n';
  }
  const double failed_frac =
      gate.attempted() > 0 ? static_cast<double>(gate.failed()) /
                                 static_cast<double>(gate.attempted())
                           : 0.0;
  std::cout << "failed_frac = " << failed_frac << " (" << gate.failed()
            << " of " << gate.attempted() << " checked scenario runs)\n";
  std::cout << "{\"correct\": " << (gate.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << gate.attempted()
            << ", \"failed\": " << gate.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Peak resident memory of this process image. VmHWM comes first because
/// getrusage's ru_maxrss survives exec: started from a larger parent (the
/// Python runner) it would report the parent's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

/// Busy-loops `threads` threads for `seconds` (see kWarmupSeconds).
void warm_machine(int threads, double seconds) {
  std::vector<std::jthread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([seconds] {
      const auto t0 = Clock::now();
      std::uint64_t x = 1;
      while (seconds_since(t0) < seconds) {
        for (int i = 0; i < 100000; ++i) x = x * 6364136223846793005ULL + 1;
        keep(x);
      }
    });
  }
}

int run(const Options& opt) {
  const KeyValues fp = fingerprint(opt);
  std::cout << "# perfbench";
  for (const auto& [k, v] : fp) std::cout << ' ' << k << "=\"" << v << '"';
  std::cout << '\n';
  if (!kOptimized || !kNdebug || kSanitized) {
    std::cerr << "perfbench: refusing to report from a "
              << (kSanitized ? "sanitizer" : "debug or unoptimized")
              << " build (build_type=" << PERFBENCH_BUILD_TYPE
              << "); build with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  if (!opt.tiny) warm_machine(worker_threads(), kWarmupSeconds);

  // Set-up: the registry build, then workload generation plus one warm-up
  // round, several times. The first set-up also counts the registry.
  const auto t_start = Clock::now();
  (void)api::registry();
  const double registry_ms = seconds_since(t_start) * 1e3;
  Gate gate;
  Tracer quiet(false);
  std::vector<double> setups;
  Workload w;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = r == 0 ? t_start : Clock::now();
    w = make_workload(opt.workload, opt.seed, opt.tiny);
    (void)run_round(w, gate, quiet, nullptr);
    setups.push_back(seconds_since(t0));
  }
  const std::size_t min_rounds =
      opt.tiny ? 1 : rounds_for_tail(w.tail_percentile);
  std::cout << "# workload " << w.name << ": " << w.scenarios.size()
            << " scenarios per round, tail percentile p" << w.tail_percentile
            << ", at least " << min_rounds << " rounds\n";

  std::vector<Reported> metrics;
  if (!opt.trace) {
    std::vector<RoundStats> rounds;
    const auto t0 = Clock::now();
    while ((seconds_since(t0) < opt.seconds || rounds.size() < min_rounds) &&
           seconds_since(t0) < kMaxTimedSeconds) {
      rounds.push_back(run_round(w, gate, quiet, nullptr));
    }
    const double timed_s = seconds_since(t0);
    post_checks(w, gate, quiet);
    const EndToEnd e = summarize(rounds, w.tail_percentile);
    std::cout << "# " << rounds.size() << " rounds in " << timed_s << " s\n";
    const std::map<std::string, double> values = {
        {"setup_s", median(setups)},
        {"calls_per_s", e.calls_per_s},
        {"executions_per_s", e.executions_per_s},
        {"round_ms_p50", e.p50_ms},
        {"round_ms_tail", e.tail_ms},
        {"peak_rss_mb", peak_rss_mb()}};
    for (const MetricDef& d : end_to_end_defs()) {
      metrics.push_back({d.name, values.at(d.name), d.unit});
    }
  } else {
    Tracer tr(true);
    // Tracing overhead: traced and untraced rounds alternate for half the
    // run; the traced rounds' reports feed the layer counters.
    std::vector<RoundStats> plain, traced;
    std::vector<api::ScenarioReport> reports;
    const auto t0 = Clock::now();
    const std::size_t min_pairs = opt.tiny ? 1 : 5;
    while ((seconds_since(t0) < opt.seconds / 2 || traced.size() < min_pairs) &&
           seconds_since(t0) < kMaxTimedSeconds / 2) {
      plain.push_back(run_round(w, gate, quiet, nullptr));
      traced.push_back(run_round(w, gate, tr, &reports));
    }
    const EndToEnd e_plain = summarize(plain, w.tail_percentile);
    const EndToEnd e_traced = summarize(traced, w.tail_percentile);
    std::cout << "# traced rounds: round_ms_p50 " << e_traced.p50_ms
              << " ms traced vs " << e_plain.p50_ms << " ms untraced; "
              << "calls_per_s " << e_traced.calls_per_s << " traced vs "
              << e_plain.calls_per_s << " untraced\n";

    LayerValues layers;
    for (const MetricDef& d : per_layer_defs()) layers[d.name] = 0.0;
    {
      const Tracer::Scope span(tr, "ledger");
      if (w.name == "native-getts") {
        probe_atomicmem(layers, gate, tr, opt.tiny);
        probe_native(layers, tr, opt.tiny);
        probe_snapshot(layers, tr, opt.tiny);
        probe_core(layers, tr, opt.tiny);
      } else if (w.name == "native-sharded") {
        probe_atomicmem(layers, gate, tr, opt.tiny);
        probe_shard_route(layers, tr, opt.tiny);
      }
      const std::vector<Paired> paired =
          decompose(w, gate, tr, opt.tiny ? 1 : kDecomposePasses);
      derive_layers(w, paired, reports, traced, layers);
    }
    layers["api.registry_ms"] = registry_ms;
    layers["trace.overhead_frac"] = e_traced.p50_ms / e_plain.p50_ms - 1.0;
    post_checks(w, gate, tr);

    KeyValues meta = fp;
    for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
      meta.emplace_back("scenario." + std::to_string(i), w.scenarios[i].label);
    }
    if (!tr.write_chrome(opt.trace_out, meta)) {
      std::cerr << "perfbench: cannot write trace file " << opt.trace_out
                << '\n';
      return 2;
    }
    std::cout << "# trace: " << tr.spans().size() << " spans written to "
              << opt.trace_out << '\n';
    for (const MetricDef& d : per_layer_defs()) {
      metrics.push_back({d.name, layers[d.name], d.unit});
    }
  }
  print_result(gate, metrics);
  return gate.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--tiny] [--trace-out <file>] "
                 "[--source-id <id>]\n";
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
