#pragma once

/// \file harness.hpp
/// Shared pieces of the benchmark harness: a monotonic clock, the in-memory
/// span recorder of the traced run, result checks, and a small JSON object
/// writer for the harness's one-line report.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "stats/summary.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Flat JSON object built key by key; values are numbers, strings, or
/// pre-serialized JSON.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::uint64_t value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

[[nodiscard]] std::string json_string(const std::string& text);
[[nodiscard]] std::string json_string_list(const std::vector<std::string>& items);

/// Median of `v`; NaN when empty.
[[nodiscard]] double median(std::vector<double> v);

/// One timed interval at a layer boundary. `parent` is the enclosing span's
/// id (0 = none); `count` is the work the span did (messages, replications).
struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t count = 0;
};

/// Records spans in memory; write() serializes them once the run ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  std::uint32_t begin(const char* name);
  void end(std::uint32_t id, std::uint64_t count = 0);
  /// Summed duration (seconds) over every span called `name`.
  [[nodiscard]] double total_seconds(const char* name) const;
  [[nodiscard]] std::size_t occurrences(const char* name) const;
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span: begins on construction, ends on destruction or at end().
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void end(std::uint64_t count = 0) {
    if (open_) tracer_.end(id_, count);
    open_ = false;
  }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
  bool open_ = true;
};

/// Correctness bookkeeping. A case that fails any check counts all its
/// replications as failed, once; `notes` says why.
struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> notes;
  /// `where` names the case (and run); `replications` is its size.
  void fail(const std::string& where, std::uint64_t replications,
            const std::string& why);
  [[nodiscard]] std::uint64_t failed() const;

 private:
  std::map<std::string, std::uint64_t> failed_cases_;
};

/// Bit-exact equality of two summaries (count, mean, variance, min, max).
[[nodiscard]] bool same_summary(const gossip::stats::OnlineSummary& a,
                                const gossip::stats::OnlineSummary& b);
/// Bit-exact equality of every seeded field of two case results; "" when
/// equal, otherwise the first differing field.
[[nodiscard]] std::string case_difference(const gossip::scenario::CaseResult& a,
                                          const gossip::scenario::CaseResult& b);
/// Range checks every result must pass (reliabilities in [0, 1],
/// replication counts as requested); failures go to `checks`.
/// `run` prefixes the case names in failure notes.
void check_results(const gossip::scenario::ScenarioSpec& spec,
                   const std::vector<gossip::scenario::CaseResult>& results,
                   const std::string& run, Checks& checks);
/// Writes the results CSV and run manifest exactly as gossip_scenarios does.
void write_outputs(const std::string& dir, const std::string& stem,
                   const gossip::scenario::ScenarioSpec& spec,
                   const std::vector<gossip::scenario::CaseResult>& results,
                   const gossip::scenario::RunTelemetry& telemetry);

struct TraceOptions {
  std::string spec_text;
  std::string out_dir;
  std::string ref_case;  ///< Label of the case reference probes derive from.
  std::size_t estimator_reps = 0;
};

/// The traced run: spans around every layer call, per-layer metrics, and
/// the traced-vs-untraced agreement checks. Returns the metrics object.
[[nodiscard]] std::string run_traced(const TraceOptions& options,
                                     Checks& checks);

}  // namespace perfbench
