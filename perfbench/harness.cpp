/// \file harness.cpp
/// Benchmark harness entry point. Reads one scenario spec as text on stdin
/// and measures it in one of two modes:
///
///   perfbench_harness e2e   --seconds S --out DIR
///   perfbench_harness trace --seconds S --out DIR --ref-case LABEL
///                           --estimator-reps K
///
/// `e2e` is the untraced closed loop: back-to-back ScenarioRunner runs, one
/// thread, each from spec text in to results CSV and manifest written, for
/// S seconds. Run k uses the spec's seed + k, so one harness run covers many
/// independent replication streams. `trace` is the separate traced run
/// (traced.cpp). Both print one JSON object on stdout: metrics, details,
/// host context and the correctness tally. The harness refuses to measure
/// from an unoptimised, assert-enabled or sanitizer build.

#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "obs/manifest.hpp"
#include "scenario/manifest.hpp"

namespace perfbench {

namespace gs = gossip::scenario;

// ---- JSON --------------------------------------------------------------

std::string json_string(const std::string& text) {
  std::string out(1, '"');
  out += gossip::obs::json_escape(text);
  out += '"';
  return out;
}

std::string json_string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items[i]);
  }
  return out + "]";
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  if (!std::isfinite(value)) return raw(key, "null");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return raw(key, buf);
}

JsonObject& JsonObject::integer(const std::string& key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  return raw(key, json_string(value));
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  items_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items_[i].first) + ": " + items_[i].second;
  }
  return out + "}";
}

// ---- Spans -------------------------------------------------------------

std::uint32_t Tracer::begin(const char* name) {
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.start_s = seconds_since(origin_);
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void Tracer::end(std::uint32_t id, std::uint64_t count) {
  Span& span = spans_[id - 1];
  span.end_s = seconds_since(origin_);
  span.count = count;
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

double Tracer::total_seconds(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += s.end_s - s.start_s;
  }
  return total;
}

std::size_t Tracer::occurrences(const char* name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) {
        return std::strcmp(s.name, name) == 0;
      }));
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject o;
    o.str("name", s.name)
        .integer("id", s.id)
        .integer("parent", s.parent)
        .num("start_s", s.start_s)
        .num("end_s", s.end_s)
        .integer("count", s.count);
    out << "  " << o.dump() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

// ---- Checks ------------------------------------------------------------

void Checks::fail(const std::string& where, std::uint64_t replications,
                  const std::string& why) {
  auto& failed = failed_cases_[where];
  failed = std::max(failed, replications);
  const std::string note = where + ": " + why;
  if (notes.size() < 20 &&
      std::find(notes.begin(), notes.end(), note) == notes.end()) {
    notes.push_back(note);
  }
}

std::uint64_t Checks::failed() const {
  std::uint64_t total = 0;
  for (const auto& [where, replications] : failed_cases_) {
    total += replications;
  }
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

bool same_summary(const gossip::stats::OnlineSummary& a,
                  const gossip::stats::OnlineSummary& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return a.count() == b.count() && same(a.mean(), b.mean()) &&
         same(a.variance(), b.variance()) && same(a.min(), b.min()) &&
         same(a.max(), b.max());
}

std::string case_difference(const gs::CaseResult& a, const gs::CaseResult& b) {
  if (a.label != b.label) return "label";
  if (a.replications != b.replications) return "replications";
  if (!same_summary(a.reliability, b.reliability)) return "reliability";
  if (!same_summary(a.messages, b.messages)) return "messages";
  if (!same_summary(a.completion_time, b.completion_time)) {
    return "completion_time";
  }
  if (!same_summary(a.midrun_crashes, b.midrun_crashes)) {
    return "midrun_crashes";
  }
  if (a.success_count != b.success_count) return "success_count";
  if (a.has_meanfield != b.has_meanfield ||
      std::memcmp(&a.meanfield_reliability, &b.meanfield_reliability,
                  sizeof(double)) != 0) {
    return "meanfield_reliability";
  }
  if (a.per_message_reliability.size() != b.per_message_reliability.size()) {
    return "per_message_reliability";
  }
  for (std::size_t m = 0; m < a.per_message_reliability.size(); ++m) {
    if (!same_summary(a.per_message_reliability[m],
                      b.per_message_reliability[m])) {
      return "per_message_reliability";
    }
    if (!same_summary(a.per_message_latency[m], b.per_message_latency[m])) {
      return "per_message_latency";
    }
  }
  return "";
}

namespace {

bool in_unit_interval(double x) { return x >= 0.0 && x <= 1.0; }

std::size_t expected_replications(const gs::ResolvedCase& c) {
  const auto engine = c.fields.find("engine");
  if (engine != c.fields.end() && engine->second == "meanfield") return 0;
  const auto reps = c.fields.find("repetitions");
  return reps == c.fields.end() ? 20
                                : static_cast<std::size_t>(gs::to_u64(
                                      reps->second, "repetitions"));
}

std::uint64_t spec_replications(const gs::ScenarioSpec& spec) {
  std::uint64_t total = 0;
  for (const auto& c : spec.expand_cases()) total += expected_replications(c);
  return total;
}

}  // namespace

void check_results(const gs::ScenarioSpec& spec,
                   const std::vector<gs::CaseResult>& results,
                   const std::string& run, Checks& checks) {
  const auto cases = spec.expand_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::size_t expected = expected_replications(cases[i]);
    checks.attempted += expected;
    if (i >= results.size()) {
      checks.fail(run + "case " + cases[i].label, expected, "no result");
      continue;
    }
    const gs::CaseResult& r = results[i];
    std::string why;
    if (r.replications != expected ||
        r.reliability.count() != std::max<std::size_t>(expected, 1)) {
      why = "replication count";
    } else if (r.reliability.count() > 0 &&
               !(in_unit_interval(r.reliability.min()) &&
                 in_unit_interval(r.reliability.max()))) {
      why = "reliability outside [0, 1]";
    } else if (r.has_meanfield &&
               !in_unit_interval(r.meanfield_reliability)) {
      why = "mean-field reliability outside [0, 1]";
    } else {
      for (const auto& m : r.per_message_reliability) {
        if (m.count() > 0 &&
            !(in_unit_interval(m.min()) && in_unit_interval(m.max()))) {
          why = "per-message reliability outside [0, 1]";
        }
      }
    }
    if (!why.empty()) checks.fail(run + "case " + r.label, expected, why);
  }
}

void write_outputs(const std::string& dir, const std::string& stem,
                   const gs::ScenarioSpec& spec,
                   const std::vector<gs::CaseResult>& results,
                   const gs::RunTelemetry& telemetry) {
  const std::string csv = dir + "/" + stem + ".csv";
  gs::write_results_csv(csv, results);
  auto manifest = gs::build_run_manifest(spec, results, telemetry);
  manifest.tool = "perfbench_harness";
  manifest.threads = 1;
  manifest.results_csv = csv;
  gossip::obs::write_manifest(dir + "/" + stem + ".manifest.json", manifest);
}

namespace {

// ---- Build and host guard ----------------------------------------------

std::vector<std::string> build_defects() {
  std::vector<std::string> defects;
#ifndef NDEBUG
  defects.emplace_back("assertions are enabled (NDEBUG is not defined)");
#endif
#ifndef __OPTIMIZE__
  defects.emplace_back("the build is unoptimised (no -O level)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  defects.emplace_back("a sanitizer is compiled in");
#endif
#if PERFBENCH_SANITIZER
  defects.emplace_back("the compile flags request a sanitizer");
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    defects.push_back("build type is '" + build_type +
                      "', not Release or RelWithDebInfo");
  }
  return defects;
}

std::string host_json() {
  JsonObject o;
  o.integer("nproc", std::thread::hardware_concurrency());
  o.integer("l2_bytes",
            static_cast<std::uint64_t>(std::max(0L, sysconf(_SC_LEVEL2_CACHE_SIZE))));
  o.integer("l3_bytes",
            static_cast<std::uint64_t>(std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE))));
#if defined(__clang__)
  o.str("compiler", std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  o.str("compiler", std::string("gcc ") + __VERSION__);
#else
  o.str("compiler", __VERSION__);
#endif
  o.str("build_type", PERFBENCH_BUILD_TYPE);
  o.str("cxx_flags", PERFBENCH_CXX_FLAGS);
  return o.dump();
}

// ---- Host-speed gauge --------------------------------------------------

/// Fixed reference work that shares no code with src/, run between the
/// timed runs to track how fast the shared host is at the time. One pass is
/// random read-modify-write over a 64 KiB table with xorshift index
/// arithmetic (core-bound, like the flat engine's Bitvec and LUT work) and
/// independent random reads over a 16 MiB table (bound by the cache
/// hierarchy, like CSR neighbour lookups and the DES engine's per-node
/// state). A program change cannot move it; a slow spell of the host slows
/// it down too. The host's slow spells strike each vCPU on its own, so the
/// gauge runs on the thread that runs the program, between its runs.
class HostGauge {
 public:
  HostGauge() : small_(kSmallWords, 1), large_(kLargeWords) {
    for (auto& w : large_) w = next();
  }

  /// Runs whole passes until they have taken at least `budget_s` seconds
  /// (at least two passes); returns the mean seconds per pass.
  double measure(double budget_s) {
    const auto start = Clock::now();
    double elapsed = 0.0;
    int passes = 0;
    while (passes < 2 || elapsed < budget_s) {
      pass();
      ++passes;
      elapsed = seconds_since(start);
    }
    return elapsed / passes;
  }

 private:
  static constexpr std::size_t kSmallWords = std::size_t{1} << 13;  // 64 KiB
  static constexpr std::size_t kLargeWords = std::size_t{1} << 21;  // 16 MiB
  static constexpr std::size_t kSmallOps = 600'000;
  static constexpr std::size_t kLargeOps = 400'000;

  void pass() {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kSmallOps; ++i) {
      std::uint64_t& w = small_[next() & (kSmallWords - 1)];
      w = (w ^ acc) * 0x9E3779B97F4A7C15ULL + 1;
      acc += w >> 7;
    }
    for (std::size_t i = 0; i < kLargeOps; ++i) {
      acc += large_[next() & (kLargeWords - 1)];
    }
    sink_ = sink_ ^ acc;  // keeps the work observable
  }

  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::vector<std::uint64_t> small_;
  std::vector<std::uint64_t> large_;
  std::uint64_t state_ = 0x2545F4914F6CDD1DULL;
  volatile std::uint64_t sink_ = 0;
};

/// Resident bytes of this process now (0 where /proc is unavailable).
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Peak resident bytes of this program image: VmHWM, which starts afresh at
/// exec. (getrusage's ru_maxrss does not: it keeps the peak of the process
/// that forked the harness, the Python wrapper run.py, which is larger than
/// the smaller workloads.)
std::uint64_t peak_resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return 1024 * std::stoull(line.substr(6));  // reported in kB
    }
  }
  return gossip::obs::peak_rss_bytes();
}

/// HostGauge seconds per pass on the reference host (4-vCPU Xeon VM, gcc
/// Release) in a typical spell. Timing metrics are scaled to that speed.
constexpr double kGaugeNominalS = 0.007;
/// Gauge time after each timed run, as a share of that run's wall time.
constexpr double kGaugeShare = 0.2;

// ---- Untraced closed loop ----------------------------------------------

struct CallStat {
  double wall_s = 0.0;     ///< Spec text in to results written.
  double rep_sum_s = 0.0;  ///< Summed replication seconds.
  std::uint64_t reps = 0;
  double messages = 0.0;
  /// Mean over the run's cases of each case's median replication seconds.
  /// Cases of one grid can take very different times (ER vs BA overlays,
  /// z = 1.1 vs 6.7); the median of such a mixture falls in the gap between
  /// them, where a few samples move it a long way.
  double rep_p50_s = 0.0;
  /// Gauge seconds per pass around this run (mean of the gauges before and
  /// after it) over kGaugeNominalS: above 1 while the host runs slow.
  double slowness = 1.0;
};

std::string json_numbers(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i > 0 ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

/// Replication times, gathered run by run into blocks of at least
/// kBlockReps samples; each block holds whole runs, so it covers every case
/// of the grid, and a short last block joins the one before it. A block's
/// tail is the mean over cases of each case's highest percentile with ten
/// samples above it; a case with fewer than 11 samples in the block is
/// left out. Taken over the pooled block instead, it would be the tail of
/// the slowest case alone, far out (p99.8 of 6400 samples on `grid_small`).
/// Only the figures are kept, so the harness's own memory stays flat
/// however many replications a run makes and peak_rss_mb measures the
/// program.
class TailBlocks {
 public:
  static constexpr std::size_t kBlockReps = 200;

  /// One timed run: by_case[c] holds case c's replication seconds.
  void add_run(const std::vector<std::vector<double>>& by_case) {
    if (open_.size() < by_case.size()) open_.resize(by_case.size());
    for (std::size_t c = 0; c < by_case.size(); ++c) {
      open_[c].insert(open_[c].end(), by_case[c].begin(), by_case[c].end());
    }
    if (samples(open_) < kBlockReps) return;
    close(open_);
    previous_ = std::move(open_);
    open_.clear();
  }

  /// Closes the last, short block; call once after the last run.
  void finish() {
    if (samples(open_) == 0) return;
    if (!previous_.empty()) {
      tails.pop_back();
      percentiles.pop_back();
      if (open_.size() < previous_.size()) open_.resize(previous_.size());
      for (std::size_t c = 0; c < previous_.size(); ++c) {
        open_[c].insert(open_[c].end(), previous_[c].begin(),
                        previous_[c].end());
      }
    }
    close(open_);
    open_.clear();
  }

  std::vector<double> tails;        ///< One per block with a tail.
  std::vector<double> percentiles;  ///< Mean tail percentile per block.

 private:
  using Block = std::vector<std::vector<double>>;

  static std::size_t samples(const Block& block) {
    std::size_t n = 0;
    for (const auto& c : block) n += c.size();
    return n;
  }

  void close(Block block) {
    double tail_sum = 0.0, pct_sum = 0.0;
    std::size_t cases = 0;
    for (auto& c : block) {
      if (c.size() < 11) continue;
      std::sort(c.begin(), c.end());
      tail_sum += c[c.size() - 11];
      const auto n = static_cast<double>(c.size());
      pct_sum += 100.0 * (n - 10.0) / n;
      ++cases;
    }
    if (cases == 0) return;
    tails.push_back(tail_sum / static_cast<double>(cases));
    percentiles.push_back(pct_sum / static_cast<double>(cases));
  }

  Block open_, previous_;
};

std::string run_e2e(const std::string& text, double seconds,
                    const std::string& out_dir, Checks& checks) {
  const gs::ScenarioSpec base = gs::ScenarioSpec::parse(text);
  const std::uint64_t seed0 = gs::to_u64(base.get("seed", "42"), "seed");
  const gs::ScenarioRunner runner(nullptr);

  // The host is shared: its speed swings by tens of percent from one second
  // to the next and, now and then, for minutes. Each run's times are divided
  // by the host slowness the gauge read around it, so the timing metrics are
  // in seconds of the reference host; the raw rates are in the details.
  // The gauge's table stays resident for the whole loop, so it adds its own
  // size to the process's peak; peak_rss_mb takes that size off again.
  const std::uint64_t before_gauge = resident_bytes();
  HostGauge gauge;
  const std::uint64_t gauge_bytes = resident_bytes() - before_gauge;
  double last_gauge_s = 0.0;

  std::vector<CallStat> calls;
  TailBlocks blocks;
  std::vector<std::vector<double>> scaled_reps;
  const auto one_call = [&](std::uint64_t k, bool measured) {
    gs::ScenarioSpec next = base;
    next.set("seed", std::to_string(seed0 + k));
    const std::string call_text = next.format();
    CallStat stat;
    gs::RunTelemetry telemetry;
    std::vector<gs::CaseResult> results;
    gs::ScenarioSpec spec;
    try {
      const auto start = Clock::now();
      spec = gs::ScenarioSpec::parse(call_text);
      gs::validate_spec_keys(spec);
      results = runner.run(spec, &telemetry);
      write_outputs(out_dir, "e2e", spec, results, telemetry);
      stat.wall_s = seconds_since(start);
    } catch (const std::exception& e) {
      const std::uint64_t reps = spec_replications(next);
      checks.attempted += reps;
      checks.fail("run " + std::to_string(k), reps,
                  std::string("failed: ") + e.what());
      return;
    }
    check_results(spec, results, "run " + std::to_string(k) + " ", checks);
    const double gauge_s = gauge.measure(kGaugeShare * stat.wall_s);
    stat.slowness = 0.5 * (last_gauge_s + gauge_s) / kGaugeNominalS;
    last_gauge_s = gauge_s;
    if (!measured) return;
    scaled_reps.assign(results.size(), {});
    for (std::size_t c = 0; c < results.size(); ++c) {
      stat.reps += results[c].replications;
      stat.messages += results[c].messages.sum();
      const auto& seconds_c = telemetry.cases[c].replication_seconds;
      stat.rep_p50_s += median(seconds_c) / static_cast<double>(results.size());
      for (const double s : seconds_c) {
        stat.rep_sum_s += s;
        scaled_reps[c].push_back(s / stat.slowness);
      }
    }
    calls.push_back(stat);
    blocks.add_run(scaled_reps);
  };

  // Call 0 warms caches and the allocator; it is checked but not timed.
  last_gauge_s = gauge.measure(0.05);
  one_call(0, false);
  const auto start = Clock::now();
  for (std::uint64_t k = 1;; ++k) {
    const double elapsed = seconds_since(start);
    const double typical =
        calls.empty() ? 0.0 : (1.0 + kGaugeShare) * calls.back().wall_s;
    if (calls.size() >= 3 && elapsed + typical > seconds) break;
    if (k > 3 && calls.empty()) break;  // every call failed
    one_call(k, true);
  }
  const double measured_s = seconds_since(start);
  const std::uint64_t peak_bytes = peak_resident_bytes() - gauge_bytes;
  blocks.finish();
  if (calls.empty()) throw std::runtime_error("no timed run completed");
  if (blocks.tails.empty()) {
    throw std::runtime_error("no case has 11 timed replications");
  }

  double reps = 0.0, messages = 0.0, wall = 0.0, scaled_wall = 0.0;
  std::vector<double> setup, rep_p50, slowness;
  for (const CallStat& c : calls) {
    reps += static_cast<double>(c.reps);
    messages += c.messages;
    wall += c.wall_s;
    scaled_wall += c.wall_s / c.slowness;
    setup.push_back((c.wall_s - c.rep_sum_s) / c.slowness);
    rep_p50.push_back(c.rep_p50_s / c.slowness);
    slowness.push_back(c.slowness);
  }

  JsonObject metrics;
  metrics.num("reps_per_s", reps / scaled_wall)
      .num("msgs_per_s", messages / scaled_wall)
      .num("setup_s", median(setup))
      .num("rep_p50_ms", 1e3 * median(rep_p50))
      .num("rep_tail_ms", 1e3 * median(blocks.tails))
      .num("peak_rss_mb", static_cast<double>(peak_bytes) / (1024.0 * 1024.0))
      .num("ok_frac",
           checks.attempted == 0
               ? 0.0
               : 1.0 - static_cast<double>(checks.failed()) /
                           static_cast<double>(checks.attempted));
  JsonObject details;
  details.integer("timed_runs", calls.size())
      .integer("rep_samples", static_cast<std::uint64_t>(reps))
      .integer("rep_tail_blocks", blocks.tails.size())
      .num("rep_tail_percentile", median(blocks.percentiles))
      .integer("rep_tail_samples_above", 10)
      .num("raw_reps_per_s", reps / wall)
      .num("raw_msgs_per_s", messages / wall)
      .num("host_slowness_p50", median(slowness))
      .raw("host_slowness_by_run", json_numbers(slowness))
      .num("gauge_share", kGaugeShare)
      .integer("gauge_resident_bytes", gauge_bytes)
      .integer("first_seed", seed0 + 1)
      .num("measured_s", measured_s);
  JsonObject out;
  out.raw("metrics", metrics.dump()).raw("details", details.dump());
  return out.dump();
}

struct Args {
  std::string mode;
  double seconds = 10.0;
  std::string out_dir = ".";
  std::string ref_case = "-";
  std::size_t estimator_reps = 8;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode (e2e or trace)");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--seconds") {
      args.seconds = gs::to_double(value, "--seconds");
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--ref-case") {
      args.ref_case = value;
    } else if (flag == "--estimator-reps") {
      args.estimator_reps =
          static_cast<std::size_t>(gs::to_u64(value, "--estimator-reps"));
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.mode != "e2e" && args.mode != "trace") {
    throw std::invalid_argument("mode must be e2e or trace");
  }
  return args;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto defects = build_defects();
  if (!defects.empty()) {
    std::cerr << "perfbench: refusing to measure this build:";
    for (const auto& d : defects) std::cerr << "\n  - " << d;
    std::cerr << "\n";
    return 3;
  }
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.out_dir);
    const std::string text{std::istreambuf_iterator<char>(std::cin),
                           std::istreambuf_iterator<char>()};
    Checks checks;
    std::string body;
    if (args.mode == "e2e") {
      body = run_e2e(text, args.seconds, args.out_dir, checks);
    } else {
      TraceOptions options;
      options.spec_text = text;
      options.out_dir = args.out_dir;
      options.ref_case = args.ref_case;
      options.estimator_reps = args.estimator_reps;
      body = run_traced(options, checks);
    }
    JsonObject out;
    out.raw("result", body)
        .raw("host", host_json())
        .integer("attempted", checks.attempted)
        .integer("failed", checks.failed())
        .raw("notes", json_string_list(checks.notes));
    std::cout << out.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
