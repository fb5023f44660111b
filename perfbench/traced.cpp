/// \file traced.cpp
/// The traced run. It first runs the spec once untraced through
/// ScenarioRunner (the reference), then drives the same cases itself,
/// calling each layer's public functions with a span around every call:
/// scenario parse and case build, the graph overlay build, the flat
/// engine's LUT, constructor and run_once, the DES run_gossip_workload,
/// the mean-field estimator, and the results writer. Replication r of a
/// case uses RngStream(seed).substream(r) exactly as the runner does, so
/// the traced case summaries must equal the reference bit for bit.
///
/// Layers a workload's own spec bypasses are still measured, on a
/// reference configuration derived from the --ref-case case (see
/// perfbench/README.md), so every traced run reports every metric.

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/bitvec.hpp"
#include "experiment/component_mc.hpp"
#include "experiment/meanfield.hpp"
#include "experiment/monte_carlo.hpp"
#include "harness.hpp"
#include "membership/topology_view.hpp"
#include "obs/probe.hpp"
#include "parallel/thread_pool.hpp"
#include "protocol/flat_gossip.hpp"
#include "protocol/gossip_multicast.hpp"
#include "rng/lut_sampler.hpp"
#include "rng/rng_stream.hpp"
#include "scenario/registry.hpp"
#include "scenario/topology.hpp"

namespace perfbench {

namespace {

namespace gs = gossip::scenario;
namespace gp = gossip::protocol;
namespace gm = gossip::membership;
using gossip::rng::RngStream;

volatile std::uint64_t g_sink = 0;  // defeats dead-code elimination

/// Counts what the engines report; observation only, never draws.
class CountingProbe final : public gossip::obs::Probe {
 public:
  void on_round(const gossip::obs::RoundSample&) override {}
  void on_run(const gossip::obs::RunSummary& s) override {
    sends_ += s.sends;
    redundant_ += s.redundant;
    losses_ += s.losses;
    dead_ += s.dead_receipts;
    events_ += s.crashes + s.joins + s.lease_expiries;
  }
  std::uint64_t sends_ = 0;
  std::uint64_t redundant_ = 0;
  std::uint64_t losses_ = 0;
  std::uint64_t dead_ = 0;
  std::uint64_t events_ = 0;
};

/// One grid case with its components built the way the runner builds them.
struct TracedCase {
  gs::ResolvedCase resolved;
  std::string backend;
  std::string engine;
  std::size_t reps = 0;
  std::uint64_t seed = 0;
  std::uint32_t n = 0;
  std::uint32_t source = 0;
  double loss = 0.0;
  gossip::core::DegreeDistributionPtr fanout;
  gs::FailureConfig failure;
  gs::TopologyConfig topo;
  gm::CsrAdjacencyPtr topology;
  gossip::net::LatencyModelPtr latency;
  gm::MembershipDynamicsFactoryPtr dynamics;
  gp::WorkloadParams workload;

  [[nodiscard]] std::string field(const std::string& key,
                                  const std::string& fallback) const {
    const auto it = resolved.fields.find(key);
    return it == resolved.fields.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return resolved.fields.count(key) > 0;
  }
};

/// Builds every component of a case except the overlay (make_* calls only).
TracedCase build_case(const gs::ResolvedCase& resolved) {
  TracedCase c;
  c.resolved = resolved;
  c.backend = c.field("backend", "protocol");
  c.engine = c.field("engine", "montecarlo");
  if (c.backend != "flat" && c.backend != "protocol") {
    throw std::invalid_argument("the traced pass covers the flat and "
                                "protocol backends only");
  }
  for (const char* key : {"membership", "edge_keep", "trace"}) {
    if (c.has(key)) {
      throw std::invalid_argument(std::string("the traced pass does not "
                                              "cover '") + key + "'");
    }
  }
  c.reps = c.engine == "meanfield"
               ? 0
               : static_cast<std::size_t>(
                     gs::to_u64(c.field("repetitions", "20"), "repetitions"));
  c.seed = gs::to_u64(c.field("seed", "42"), "seed");
  c.n = gs::to_u32(c.field("n", ""), "n");
  c.source = gs::to_u32(c.field("source", "0"), "source");
  c.loss = gs::to_double(c.field("loss", "0"), "loss probability");
  c.fanout = gs::make_fanout(c.field("fanout", ""));
  c.failure = gs::make_failure(c.field("failure", "none"));
  if (c.has("latency")) c.latency = gs::make_latency(c.field("latency", ""));
  if (c.has("membership.dynamics")) {
    c.dynamics = gs::make_dynamics(c.field("membership.dynamics", ""), c.n);
  }
  c.workload.num_messages =
      gs::to_u32(c.field("workload.messages", "1"), "workload.messages");
  c.workload.spacing =
      gs::to_double(c.field("workload.spacing", "1"), "workload.spacing");
  c.workload.spread_sources = c.field("workload.sources", "fixed") == "spread";
  c.topo.family = gs::parse_topology_family(c.field("topology", "uniform"));
  if (c.has("topology.p")) {
    c.topo.has_p = true;
    c.topo.p = gs::to_double(c.field("topology.p", ""), "topology.p");
  }
  if (c.has("topology.m")) {
    c.topo.has_m = true;
    c.topo.m = gs::to_u32(c.field("topology.m", ""), "topology.m");
  }
  if (c.has("topology.clusters")) {
    c.topo.has_clusters = true;
    c.topo.clusters =
        gs::to_u32(c.field("topology.clusters", ""), "topology.clusters");
  }
  if (c.has("topology.bridge_edges")) {
    c.topo.has_bridge_edges = true;
    c.topo.bridge_edges = gs::to_u64(c.field("topology.bridge_edges", ""),
                                     "topology.bridge_edges");
  }
  gs::validate_topology_config(c.topo, c.n);
  return c;
}

gp::FlatGossipParams flat_params(const TracedCase& c) {
  gp::FlatGossipParams fp;
  fp.num_nodes = c.n;
  fp.source = c.source;
  fp.nonfailed_ratio = c.failure.nonfailed_ratio;
  fp.loss_probability = c.loss;
  fp.fanout = c.fanout;
  fp.topology = c.topology;
  return fp;
}

gp::GossipParams des_params(const TracedCase& c) {
  gp::GossipParams p;
  p.num_nodes = c.n;
  p.source = c.source;
  p.nonfailed_ratio = c.failure.nonfailed_ratio;
  p.fanout = c.fanout;
  p.loss_probability = c.loss;
  p.midrun_crash_fraction = c.failure.midrun_fraction;
  p.midrun_crash_time = c.failure.midrun_time;
  p.failure = c.failure.schedule;
  p.latency = c.latency;
  if (c.topology != nullptr) {
    p.membership = gm::topology_membership(
        c.topology, "topology-" + gs::topology_family_name(c.topo.family));
  }
  p.dynamics = c.dynamics;
  return p;
}

/// Median over five timed passes of `pass`, in nanoseconds per operation.
template <typename Pass>
double ns_per_op(std::size_t ops_per_pass, const Pass& pass) {
  pass();  // warm
  std::vector<double> ns;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    pass();
    ns.push_back(1e9 * seconds_since(start) /
                 static_cast<double>(ops_per_pass));
  }
  return median(ns);
}

/// Per-layer accumulators filled while driving the engines.
struct FlatTotals {
  double run_s = 0.0;
  std::uint64_t reps = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t useful = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t dead = 0;
  std::size_t workspace_max = 0;
};

struct DesTotals {
  double run_s = 0.0;
  std::uint64_t reps = 0;
  CountingProbe probe;
};

/// One flat replication; checks the per-replication accounting identity.
gp::FlatGossipResult flat_rep(Tracer& tracer, gp::FlatGossipEngine& engine,
                              RngStream rng, FlatTotals& totals,
                              Checks& checks, const std::string& where,
                              std::uint64_t case_reps) {
  const auto span = tracer.begin("protocol.flat.run_once");
  const auto start = Clock::now();
  const auto r = engine.run_once(rng, nullptr);
  totals.run_s += seconds_since(start);
  tracer.end(span, r.messages_sent);
  ++totals.reps;
  totals.messages += r.messages_sent;
  totals.rounds += r.rounds;
  totals.useful += r.nonfailed_received - 1;
  totals.duplicates += r.duplicate_receipts;
  totals.dead += r.dead_receipts;
  if (r.messages_sent != (r.nonfailed_received - 1) + r.duplicate_receipts +
                             r.losses + r.dead_receipts) {
    checks.fail(where, case_reps, "flat accounting identity broken");
  }
  if (!(r.reliability >= 0.0 && r.reliability <= 1.0)) {
    checks.fail(where, case_reps, "flat reliability outside [0, 1]");
  }
  return r;
}

gp::WorkloadResult des_rep(Tracer& tracer, const gp::GossipParams& params,
                           const gp::WorkloadParams& workload, RngStream rng,
                           DesTotals& totals) {
  const auto span = tracer.begin("protocol.des.run");
  const auto start = Clock::now();
  auto r = gp::run_gossip_workload(params, workload, rng, &totals.probe);
  totals.run_s += seconds_since(start);
  tracer.end(span, r.messages_sent);
  ++totals.reps;
  return r;
}

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

std::string run_traced(const TraceOptions& options, Checks& checks) {
  const gs::ScenarioRunner serial(nullptr);

  // ---- Reference: the untraced runner. This first run also warms caches
  // and the allocator; a second one after the traced pass gives the
  // untraced wall time. ----
  gs::RunTelemetry reference_telemetry;
  const auto untraced_run = [&] {
    const auto start = Clock::now();
    const gs::ScenarioSpec spec = gs::ScenarioSpec::parse(options.spec_text);
    gs::validate_spec_keys(spec);
    auto results = serial.run(spec, &reference_telemetry);
    write_outputs(options.out_dir, "untraced", spec, results,
                  reference_telemetry);
    return std::make_pair(std::move(results), seconds_since(start));
  };
  const gs::ScenarioSpec reference_spec =
      gs::ScenarioSpec::parse(options.spec_text);
  const auto reference = untraced_run().first;
  check_results(reference_spec, reference, "", checks);

  // ---- Traced pass over the same cases. ----
  Tracer tracer;
  FlatTotals flat;
  DesTotals des;
  std::vector<TracedCase> cases;
  std::vector<gs::CaseResult> traced;
  gs::RunTelemetry traced_telemetry;
  std::uint64_t overlay_bytes = 0;
  std::uint64_t overlay_arcs = 0;
  std::uint32_t overlay_max_degree = 0;
  const auto record_overlay = [&](const gm::CsrAdjacency& a) {
    overlay_bytes += a.offsets.size() * sizeof(a.offsets[0]) +
                     a.neighbors.size() * sizeof(a.neighbors[0]);
    overlay_arcs += a.neighbors.size();
    overlay_max_degree = std::max(overlay_max_degree, a.max_degree);
  };

  const auto traced_start = Clock::now();
  {
    ScopedSpan whole(tracer, "bench.traced");
    std::vector<gs::ResolvedCase> resolved;
    gs::ScenarioSpec spec;
    {
      ScopedSpan span(tracer, "scenario.parse");
      spec = gs::ScenarioSpec::parse(options.spec_text);
      gs::validate_spec_keys(spec);
      resolved = spec.expand_cases();
    }
    for (const auto& r : resolved) {
      {
        ScopedSpan span(tracer, "scenario.case_build");
        cases.push_back(build_case(r));
      }
      TracedCase& c = cases.back();
      if (c.topo.family != gs::TopologyFamily::kUniform) {
        ScopedSpan span(tracer, "graph.overlay_build");
        c.topology = gs::build_topology_adjacency(c.topo, c.n, c.seed);
        span.end();
        record_overlay(*c.topology);
      }
    }
    traced_telemetry.cases.resize(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const TracedCase& c = cases[i];
      gs::CaseResult result;
      result.scenario = spec.name();
      result.label = c.resolved.label;
      result.bindings = c.resolved.bindings;
      result.backend =
          c.backend == "flat" ? gs::Backend::kFlat : gs::Backend::kProtocol;
      result.engine = c.engine == "both"        ? gs::Engine::kBoth
                      : c.engine == "meanfield" ? gs::Engine::kMeanField
                                                : gs::Engine::kMonteCarlo;
      result.metric = c.field("metric", "reliability");
      result.replications = c.reps;
      result.seed = c.seed;
      auto& rep_seconds = traced_telemetry.cases[i].replication_seconds;
      const RngStream root(c.seed);
      if (c.backend == "flat" && c.reps > 0) {
        const auto setup = tracer.begin("protocol.flat.setup");
        gp::FlatGossipEngine engine(flat_params(c));
        tracer.end(setup);
        flat.workspace_max =
            std::max(flat.workspace_max, engine.workspace_bytes());
        for (std::size_t r = 0; r < c.reps; ++r) {
          const double before = flat.run_s;
          const auto out =
              flat_rep(tracer, engine, root.substream(r), flat, checks,
                       "case " + c.resolved.label, c.reps);
          rep_seconds.push_back(flat.run_s - before);
          result.reliability.add(out.reliability);
          result.messages.add(static_cast<double>(out.messages_sent));
          if (out.success) ++result.success_count;
        }
      } else if (c.backend == "protocol" && c.reps > 0) {
        const gp::GossipParams params = des_params(c);
        result.workload_messages = c.workload.num_messages;
        result.per_message_reliability.resize(c.workload.num_messages);
        result.per_message_latency.resize(c.workload.num_messages);
        for (std::size_t r = 0; r < c.reps; ++r) {
          const double before = des.run_s;
          const auto out =
              des_rep(tracer, params, c.workload, root.substream(r), des);
          rep_seconds.push_back(des.run_s - before);
          result.reliability.add(out.mean_reliability);
          result.messages.add(static_cast<double>(out.messages_sent));
          result.completion_time.add(out.completion_time);
          result.midrun_crashes.add(static_cast<double>(out.midrun_crashes));
          if (out.all_success) ++result.success_count;
          for (std::size_t m = 0; m < out.messages.size(); ++m) {
            result.per_message_reliability[m].add(
                out.messages[m].reliability);
            result.per_message_latency[m].add(out.messages[m].mean_latency);
          }
        }
      }
      if (c.engine != "montecarlo") {
        ScopedSpan span(tracer, "math.meanfield");
        gp::FlatGossipParams fp = flat_params(c);
        fp.topology = nullptr;
        const auto mf = gossip::experiment::estimate_reliability_meanfield(fp);
        result.has_meanfield = true;
        result.meanfield_reliability = mf.reliability;
        result.meanfield_messages = mf.messages;
        result.meanfield_rounds = mf.rounds;
        result.meanfield_extinction = mf.extinction_probability;
        if (c.engine == "meanfield") {
          result.reliability.add(mf.reliability);
          result.messages.add(mf.messages);
        }
      }
      for (const double s : rep_seconds) {
        traced_telemetry.cases[i].wall_seconds += s;
      }
      traced.push_back(std::move(result));
    }
    traced_telemetry.total_wall_seconds = seconds_since(traced_start);
    ScopedSpan span(tracer, "scenario.write");
    write_outputs(options.out_dir, "traced", spec, traced, traced_telemetry);
  }
  const double traced_wall = seconds_since(traced_start);
  const auto [rerun, untraced_wall] = untraced_run();

  // The traced pass measured the same computation as the runner, and the
  // runner repeats itself.
  const auto compare = [&](const std::vector<gs::CaseResult>& other,
                           const std::string& what) {
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const std::string diff = i < other.size()
                                   ? case_difference(other[i], reference[i])
                                   : std::string("missing");
      if (!diff.empty()) {
        checks.fail("case " + reference[i].label, reference[i].replications,
                    what + " differs from the untraced run in " + diff);
      }
    }
  };
  compare(traced, "the traced pass");
  compare(rerun, "a second untraced run");

  // ---- The flat estimator over the same substreams. ----
  double estimator_s = 0.0;
  double estimator_run_once_s = 0.0;
  const auto estimate_flat = [&](const gp::FlatGossipParams& params,
                                 std::size_t reps, std::uint64_t seed,
                                 const gossip::stats::OnlineSummary& folded,
                                 const std::string& where) {
    gossip::experiment::MonteCarloOptions mc;
    mc.replications = reps;
    mc.seed = seed;
    std::vector<double> rep_seconds;
    mc.replication_seconds = &rep_seconds;
    const auto span = tracer.begin("experiment.estimate_flat");
    const auto start = Clock::now();
    const auto estimate =
        gossip::experiment::estimate_reliability_flat(params, mc);
    estimator_s += seconds_since(start);
    tracer.end(span, reps);
    for (const double r : rep_seconds) estimator_run_once_s += r;
    if (!same_summary(estimate.reliability, folded)) {
      checks.fail(where, reps,
                  "estimate_reliability_flat differs from the traced "
                  "replications");
    }
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const TracedCase& c = cases[i];
    if (c.backend != "flat" || c.reps == 0) continue;
    estimate_flat(flat_params(c), c.reps, c.seed, traced[i].reliability,
                  "case " + c.resolved.label);
  }

  // ---- Reference configuration for layers the spec bypasses. ----
  const TracedCase* ref = &cases.front();
  if (options.ref_case != "-") {
    const auto it = std::find_if(cases.begin(), cases.end(), [&](const auto& c) {
      return c.resolved.label == options.ref_case;
    });
    if (it == cases.end()) {
      throw std::invalid_argument("no case labelled " + options.ref_case);
    }
    ref = &*it;
  }
  TracedCase ref_uniform = *ref;
  ref_uniform.topology = nullptr;
  ref_uniform.topo = gs::TopologyConfig{};
  const std::uint64_t ref_seed = ref->seed;

  // Graph-backend and component estimators: every uniform flat case, or
  // the reference case when there is none.
  std::vector<const TracedCase*> estimator_cases;
  for (const auto& c : cases) {
    if (c.backend == "flat" && c.topology == nullptr) {
      estimator_cases.push_back(&c);
    }
  }
  if (estimator_cases.empty()) estimator_cases.push_back(&ref_uniform);
  std::uint64_t estimator_reps = 0;
  for (const TracedCase* c : estimator_cases) {
    gossip::experiment::MonteCarloOptions mc;
    mc.replications = options.estimator_reps;
    mc.seed = c->seed;
    estimator_reps += mc.replications;
    {
      ScopedSpan span(tracer, "graph.estimate");
      const auto e = gossip::experiment::estimate_reliability_graph(
          c->n, *c->fanout, c->failure.nonfailed_ratio, mc, 1.0 - c->loss);
      g_sink = e.success_count;
    }
    {
      ScopedSpan span(tracer, "experiment.component");
      const auto e = gossip::experiment::estimate_giant_component(
          c->n, *c->fanout, c->failure.nonfailed_ratio, mc);
      g_sink = static_cast<std::uint64_t>(e.giant_fraction_alive.count());
    }
  }

  // Flat engine on the reference case when the spec has no flat case.
  gp::FlatGossipParams probe_params = flat_params(*ref);
  if (flat.reps == 0) {
    const TracedCase& c = ref_uniform;
    probe_params = flat_params(c);
    const auto setup = tracer.begin("protocol.flat.setup");
    gp::FlatGossipEngine engine(probe_params);
    tracer.end(setup);
    flat.workspace_max = engine.workspace_bytes();
    const RngStream root(c.seed);
    const std::size_t reps = std::max<std::size_t>(c.reps, 256);
    checks.attempted += reps;
    gossip::stats::OnlineSummary folded;
    for (std::size_t r = 0; r < reps; ++r) {
      folded.add(flat_rep(tracer, engine, root.substream(r), flat, checks,
                          "flat reference", reps)
                     .reliability);
    }
    estimate_flat(probe_params, reps, c.seed, folded, "flat reference");
  }

  // DES engine on the reference case (n capped) when the spec has none.
  if (des.reps == 0) {
    TracedCase c = ref_uniform;
    c.n = std::min<std::uint32_t>(c.n, 20000);
    c.source = 0;
    const gp::GossipParams params = des_params(c);
    const RngStream root(c.seed);
    for (std::size_t r = 0; r < 8; ++r) {
      (void)des_rep(tracer, params, gp::WorkloadParams{}, root.substream(r),
                    des);
    }
  }

  // Overlay build: an ER overlay of mean degree 16 when the spec has none.
  if (overlay_arcs == 0) {
    gs::TopologyConfig er;
    er.family = gs::TopologyFamily::kEr;
    er.has_p = true;
    const std::uint32_t n = std::min<std::uint32_t>(ref->n, 250000);
    er.p = 16.0 / static_cast<double>(n - 1);
    ScopedSpan span(tracer, "graph.overlay_build");
    const auto adjacency = gs::build_topology_adjacency(er, n, ref_seed);
    span.end();
    record_overlay(*adjacency);
  }

  // Live-membership view build: the case's own dynamics, else SCAMP.
  {
    const auto factory =
        ref->dynamics != nullptr
            ? ref->dynamics
            : gs::make_dynamics("scamp-churn(1)",
                                std::min<std::uint32_t>(ref->n, 20000));
    const RngStream root(ref_seed);
    for (std::uint64_t k = 0; k < 3; ++k) {
      ScopedSpan span(tracer, "membership.view_build");
      const auto views = factory->create(root.substream(k));
      g_sink = views->num_nodes();
    }
  }

  // Mean-field cost per case (the estimator the engine = both pass calls).
  for (const auto& c : cases) {
    gp::FlatGossipParams fp = flat_params(c);
    fp.topology = nullptr;
    ScopedSpan span(tracer, "math.meanfield.probe");
    g_sink = static_cast<std::uint64_t>(
        1e6 * gossip::experiment::estimate_reliability_meanfield(fp)
                  .reliability);
  }

  // Primitive floors at the reference case's n.
  const std::uint64_t n_ref = ref->n;
  const double next_below_ns = ns_per_op(std::size_t{1} << 22, [&] {
    RngStream rng(ref_seed);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < (std::size_t{1} << 22); ++i) {
      sum += rng.next_below(n_ref);
    }
    g_sink = sum;
  });
  // Every workload's fanout fits the LUT's 0..255 support, so the pmf is
  // the engine's LUT input unchanged.
  const std::vector<double> ref_weights =
      ref->fanout->pmf_vector(gp::FlatGossipParams{}.lut_tail_epsilon);
  constexpr std::size_t kLutBuilds = 64;
  const double lut_build_ns = ns_per_op(kLutBuilds, [&] {
    for (std::size_t i = 0; i < kLutBuilds; ++i) {
      const gossip::rng::Lut88Sampler lut(ref_weights);
      g_sink = static_cast<std::uint64_t>(lut.max_value());
    }
  });
  const gossip::rng::Lut88Sampler ref_lut(ref_weights);
  const double lut_draw_ns = ns_per_op(std::size_t{1} << 22, [&] {
    RngStream rng(ref_seed);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < (std::size_t{1} << 22); ++i) {
      sum += static_cast<std::uint64_t>(ref_lut.sample(rng));
    }
    g_sink = sum;
  });
  std::vector<std::uint32_t> indices(std::size_t{1} << 16);
  {
    RngStream rng(ref_seed + 1);
    for (auto& i : indices) {
      i = static_cast<std::uint32_t>(rng.next_below(n_ref));
    }
  }
  gossip::core::Bitvec bits(static_cast<std::size_t>(n_ref));
  constexpr std::size_t kBitPasses = 64;
  const double bitvec_ns = ns_per_op(kBitPasses * indices.size(), [&] {
    std::uint64_t fresh = 0;
    for (std::size_t p = 0; p < kBitPasses; ++p) {
      bits.reset_all();
      for (const std::uint32_t i : indices) {
        if (!bits[i]) {
          bits.set(i);
          ++fresh;
        }
      }
    }
    g_sink = fresh;
  });

  // Probe cost: run_once with a counting probe vs a null probe, same
  // substreams, alternating which goes first.
  double null_probe_s = 0.0;
  double counting_probe_s = 0.0;
  {
    gp::FlatGossipEngine engine(probe_params);
    const RngStream root(ref_seed);
    CountingProbe probe;
    const auto start = Clock::now();
    for (std::uint64_t r = 0; r < 4 || seconds_since(start) < 0.6; ++r) {
      for (int side = 0; side < 2; ++side) {
        const bool counting = (side == 0) == (r % 2 == 0);
        auto rng = root.substream(r);
        const auto t = Clock::now();
        g_sink = engine.run_once(rng, counting ? &probe : nullptr).rounds;
        (counting ? counting_probe_s : null_probe_s) += seconds_since(t);
      }
    }
  }

  // Worker-pool speedup of the runner on the reference spec.
  double speedup_2t = 0.0;
  double speedup_4t = 0.0;
  {
    const std::size_t wide = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    for (const std::size_t threads : {std::size_t{2}, wide}) {
      gossip::parallel::ThreadPool pool(threads);
      const gs::ScenarioRunner runner(&pool);
      gs::RunTelemetry telemetry;
      compare(runner.run(reference_spec, &telemetry),
              std::to_string(threads) + "-worker run");
      const double speedup = reference_telemetry.total_wall_seconds /
                             telemetry.total_wall_seconds;
      (threads == 2 ? speedup_2t : speedup_4t) = speedup;
    }
  }

  tracer.write(options.out_dir + "/spans.json");

  // ---- Per-layer metrics. ----
  const double flat_ns_per_msg =
      1e9 * flat.run_s / static_cast<double>(std::max<std::uint64_t>(flat.messages, 1));
  const auto& p = des.probe;
  JsonObject m;
  m.num("scenario.parse_ms", 1e3 * tracer.total_seconds("scenario.parse"))
      .num("scenario.case_build_ms",
           1e3 * tracer.total_seconds("scenario.case_build"))
      .num("scenario.write_ms", 1e3 * tracer.total_seconds("scenario.write"))
      .num("graph.overlay_build_s",
           tracer.total_seconds("graph.overlay_build"))
      .num("graph.overlay_mb", mb(overlay_bytes))
      .num("graph.overlay_edges", static_cast<double>(overlay_arcs / 2))
      .num("graph.overlay_max_degree", overlay_max_degree)
      .num("graph.backend_rep_us", 1e6 * tracer.total_seconds("graph.estimate") /
                                       static_cast<double>(estimator_reps))
      .num("rng.lut_build_us", 1e-3 * lut_build_ns)
      .num("rng.next_below_ns", next_below_ns)
      .num("rng.lut_draw_ns", lut_draw_ns)
      .num("core.bitvec_probe_ns", bitvec_ns)
      .num("protocol.flat.setup_ms",
           1e3 * tracer.total_seconds("protocol.flat.setup") /
               static_cast<double>(tracer.occurrences("protocol.flat.setup")))
      .num("protocol.flat.workspace_mb", mb(flat.workspace_max))
      .num("protocol.flat.ns_per_msg", flat_ns_per_msg)
      .num("protocol.flat.overhead_x",
           flat_ns_per_msg / (next_below_ns + bitvec_ns))
      .num("protocol.flat.rep_us",
           1e6 * flat.run_s / static_cast<double>(flat.reps))
      .num("protocol.flat.msgs_per_rep", frac(flat.messages, flat.reps))
      .num("protocol.flat.rounds_per_rep", frac(flat.rounds, flat.reps))
      .num("protocol.flat.useful_frac", frac(flat.useful, flat.messages))
      .num("protocol.flat.dup_frac", frac(flat.duplicates, flat.messages))
      .num("protocol.flat.dead_frac", frac(flat.dead, flat.messages))
      .num("protocol.des.ns_per_msg",
           1e9 * des.run_s / static_cast<double>(std::max<std::uint64_t>(p.sends_, 1)))
      .num("protocol.des.dup_frac", frac(p.redundant_, p.sends_))
      .num("net.loss_frac", frac(p.losses_, p.sends_))
      .num("net.dead_frac", frac(p.dead_, p.sends_))
      .num("membership.events_per_rep", frac(p.events_, des.reps))
      .num("membership.view_build_ms",
           1e3 * tracer.total_seconds("membership.view_build") / 3.0)
      .num("experiment.overhead_frac",
           estimator_s > 0.0
               ? (estimator_s - estimator_run_once_s) / estimator_s
               : 0.0)
      .num("experiment.component_rep_us",
           1e6 * tracer.total_seconds("experiment.component") /
               static_cast<double>(estimator_reps))
      .num("math.meanfield_us",
           1e6 * tracer.total_seconds("math.meanfield.probe") /
               static_cast<double>(cases.size()))
      .num("obs.probe_overhead_x", counting_probe_s / null_probe_s)
      .num("parallel.speedup_2t", speedup_2t)
      .num("parallel.speedup_4t", speedup_4t)
      .num("bench.trace_overhead_frac", traced_wall / untraced_wall - 1.0);
  JsonObject details;
  details.str("ref_case", ref->resolved.label)
      .integer("ref_n", n_ref)
      .integer("flat_reps", flat.reps)
      .integer("des_reps", des.reps)
      .integer("estimator_cases", estimator_cases.size())
      .integer("estimator_reps", estimator_reps)
      .num("untraced_wall_s", untraced_wall)
      .num("traced_wall_s", traced_wall)
      .num("estimator_wall_s", estimator_s);
  JsonObject out;
  out.raw("metrics", m.dump()).raw("details", details.dump());
  return out.dump();
}

}  // namespace perfbench
