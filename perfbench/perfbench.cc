// Wall-clock benchmark of the simulator itself.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// Each workload is one thing a user of the simulator runs, repeated for
// --seconds of wall clock. Operation k runs input k mod kInputs, and the
// inputs are generated from --seed, so one seed always means the same inputs.
// Every workload deploys Sarathi-512 replicas of Mistral-7B on one A100 each.
// Loads are stated against the strict-SLO (P99 TBT) capacity of one replica,
// found by the serial capacity search with 512-request probes (3.59 qps on
// ShareGPT4, 77 qps for 256/32-token requests, 28.75 qps for 512/64):
//
//   replica  — one replica serving a 2048-request ShareGPT4 Poisson trace at
//              half the capacity measured during set-up: the replica event
//              loop, scheduler, cost model and paged allocator. Its set-up is
//              that capacity search (bracketing + bisection over 512-request
//              probes on one warm cost model, with per-probe trace generation
//              and SLO statistics), so setup_s times a capacity search.
//   cluster  — the 200-replica round of bench_ext_cluster_scale: 20000
//              fixed-shape (256 prompt / 32 output) requests, round-robin
//              routed, at its 100 qps (0.5 qps, or 0.65% of capacity, per
//              replica), as Poisson arrivals, on the serial engine.
//   fleet    — the --quick fleet-day of bench_ext_cluster_scale: a 200-replica
//              ceiling under the queue-driven autoscaler serving a 2.4-hour
//              diurnal day of 512/64-token requests (about 100k) at mean
//              12 qps and peak-to-trough 6, that is 0.42x one replica's
//              capacity on average and 0.72x at the peak, on the serial engine.
//   fuzz     — a sarathi_fuzz campaign of 72 consecutive seeds: every
//              policy on every allocator with the invariant checker attached,
//              plus the determinism re-run, in a child process. A run's
//              campaigns tile 576 seeds from a seed-chosen offset.
//   checked  — a 1024-request replica trace at half capacity on a KV pool
//              shrunk until admission pressure forces preemption-recompute,
//              with the invariant checker attached: the checker and the
//              allocator under pressure.
//
// Set-up builds the workload: the deployment, its strict TBT SLO, the capacity
// the load is set against (replica, checked), every input trace, and for fuzz
// a one-seed smoke run of the fuzzer. setup_s is the median of kSetups
// set-ups. Operations then simulate the prepared inputs and compute the
// headline statistics `sarathi_sim` prints; a fuzz operation is one campaign.
//
// Outputs are checked outside the timed region: every request completes with
// exactly its requested tokens, the checker (when attached) stays clean, the
// fuzzer reports no violation, and repeating an input reproduces its result
// bit for bit. Once per run, input 0 is also compared against a reference:
// the simulation with the cost model's memo cache off and fresh per-call
// buffers (replica, checked without its checker, cluster, fleet),
// or the campaign fanned over two threads (fuzz).
//
// --trace 0 reports the end-to-end metrics. An input's simulation is
// deterministic, so repeats of it differ only by interference from the rest
// of the host, and its fastest repeat is taken as its cost: run_ms is the
// mean over the inputs of that wall clock (inputs differ in cost, and a
// mean evens that out faster than a median).
// --trace 1 runs the same operations with spans around every call into a
// layer (kept in memory, written to --spans-out as CSV when given), plus
// replays after each operation for layers it cannot span from outside:
// telemetry export, the checker (checked), the cluster engine's own overhead
// over its replicas (cluster) and the sharded engine (cluster, fleet). It
// reports per-layer times and the simulator's counters.
//
// The last line of stdout is one JSON object. The exit status is 0 when the
// run completed, even if a check failed (reported as "correct": false), and
// 2 on bad arguments.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/capacity/capacity_search.h"
#include "src/capacity/slo.h"
#include "src/core/serving_system.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/replica_simulator.h"
#include "src/simulator/telemetry.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/diurnal.h"
#include "src/workload/trace.h"

extern char** environ;

using namespace sarathi;

namespace {

// Distinct inputs per run; operation k runs input k % kInputs.
constexpr int kInputs = 8;
// Fresh set-ups per run; setup_s is their median (of 9: set-ups are short,
// and a median of 5 still spread 20-25% between runs).
constexpr int kSetups = 9;
// Rounds over the inputs measured even when --seconds elapses sooner.
constexpr int kMinRounds = 3;
// Probe size and seed of the capacity a replica's load is set against
// (512-request probes: shorter ones overestimate it, and 128-request probes
// scatter between 5 and 10.5 qps across seeds on ShareGPT4).
constexpr int64_t kCapacityProbeRequests = 512;
constexpr uint64_t kCapacitySeed = 42;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over the raw bits of simulated outputs.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const std::string& s) {
    for (unsigned char c : s) hash_ = (hash_ ^ c) * 0x100000001b3ULL;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---- Spans ----------------------------------------------------------------

// In-memory span recorder. Scopes given a null recorder record nothing, so
// untraced operations pay one branch per layer call.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans* spans, const char* name) : spans_(spans) {
      if (spans_ != nullptr) id_ = spans_->Begin(name);
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int id_ = -1;
  };

  // Spans begun from now on belong to operation `op`.
  void set_op(int64_t op) { op_ = op; }

  // Per span name, the summed self time (duration minus direct children)
  // and the summed duration of operation `op`'s spans.
  void Totals(int64_t op, std::map<std::string, double>* self,
              std::map<std::string, double>* duration) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.op != op) continue;
      double length = span.end_s - span.start_s;
      (*duration)[span.name] += length;
      (*self)[span.name] += length;
      if (span.parent >= 0) (*self)[spans_[static_cast<size_t>(span.parent)].name] -= length;
    }
  }

  bool WriteCsv(const std::string& path) const {
    std::ofstream out(path);
    out << "id,parent,op,name,start_s,end_s\n";
    char line[160];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::snprintf(line, sizeof(line), "%zu,%d,%lld,%s,%.9f,%.9f\n", i, span.parent,
                    static_cast<long long>(span.op), span.name, span.start_s, span.end_s);
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name = "";
    int64_t op = 0;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  int Begin(const char* name) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, op_, parent, SecondsSince(epoch_), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_s = SecondsSince(epoch_);
    open_.pop_back();
  }

  Clock::time_point epoch_ = Clock::now();
  int64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- Operations -----------------------------------------------------------

// What one operation produced. Run() fills the result and the counters;
// Verify() fills digest and error afterwards, untimed.
struct OpOutput {
  const Trace* trace = nullptr;  // The input simulated, owned by the workload.
  SimResult result;
  double headline = 0.0;
  CostCacheStats cache;
  int64_t iterations = 0;
  int64_t preemptions = 0;
  int64_t fuzz_runs = 0;
  // Results outside `result` (the autoscaler's, the fuzzer's fingerprints),
  // folded into the digest.
  std::vector<double> outcome;
  std::string text;
  std::string error;  // Set by Run() or Verify(); empty when all checks pass.
  uint64_t digest = 0;
};

// The headline statistics a `sarathi_sim` run prints, summed so the
// compiler cannot drop the work.
double Headline(const SimResult& result, double tbt_slo_s) {
  return result.MedianTtft() + result.P99Tbt() + result.MaxTbt() +
         static_cast<double>(result.CountStalls(tbt_slo_s)) + result.MedianSchedulingDelay() +
         result.OutputTokenThroughput() + result.Mfu() + result.Mbu() + result.BubbleFraction() +
         result.PeakKvUtilization();
}

// Every request of `trace` finished with exactly its requested output tokens.
std::string CheckConservation(const Trace& trace, const SimResult& result) {
  if (result.requests.size() != trace.size()) {
    return "result holds " + std::to_string(result.requests.size()) + " requests, trace " +
           std::to_string(trace.size());
  }
  int64_t expected_tokens = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Request& request = trace.requests[i];
    const RequestMetrics& metrics = result.requests[i];
    expected_tokens += request.output_tokens;
    if (metrics.id != request.id || !metrics.completed() || metrics.failed() ||
        static_cast<int64_t>(metrics.token_times_s.size()) != request.output_tokens) {
      return "request " + std::to_string(request.id) + " did not complete with its " +
             std::to_string(request.output_tokens) + " tokens";
    }
  }
  if (result.total_output_tokens != expected_tokens) {
    return "emitted " + std::to_string(result.total_output_tokens) + " output tokens, expected " +
           std::to_string(expected_tokens);
  }
  return "";
}

// Conservation plus the digest of everything the operation produced.
void Verify(OpOutput* out) {
  if (out->error.empty() && out->trace != nullptr) {
    out->error = CheckConservation(*out->trace, out->result);
  }
  Digest digest;
  digest.Add(out->headline);
  digest.Add(out->iterations);
  digest.Add(out->preemptions);
  for (double v : out->outcome) digest.Add(v);
  digest.Add(out->text);
  for (const RequestMetrics& request : out->result.requests) {
    digest.Add(request.id);
    digest.Add(request.first_scheduled_s);
    digest.Add(request.completion_s);
    for (double t : request.token_times_s) digest.Add(t);
  }
  out->digest = digest.value();
}

SimulatorOptions ReplicaOptions() {
  Deployment deployment = MistralOnA100();
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = SarathiConfig(512);
  return options;
}

std::shared_ptr<IterationCostModel> FreshCostModel(const SimulatorOptions& options) {
  return std::make_shared<IterationCostModel>(options.model, options.cluster, options.parallel);
}

// The reference path: no memoized iteration costs and fresh buffers per
// engine call, the slow leg of bench_perf_selfcheck.
void UseReferencePath(SimulatorOptions* options) {
  options->cost_model = FreshCostModel(*options);
  options->cost_model->set_cache_enabled(false);
  options->reuse_buffers = false;
}

double StrictTbtSlo(const SimulatorOptions& options) {
  return DeriveSlo(*FreshCostModel(options)).strict_p99_tbt_s;
}

// The strict-SLO capacity of one replica on ShareGPT4, by the serial
// FindCapacity path: one simulator and one warm cost model serve every probe.
CapacityResult StrictCapacity(SimulatorOptions options, double tbt_slo_s) {
  options.cost_model = FreshCostModel(options);
  CapacityOptions search;
  search.dataset = OpenChatShareGpt4();
  search.num_requests = kCapacityProbeRequests;
  search.tbt_slo_s = tbt_slo_s;
  search.seed = kCapacitySeed;
  ReplicaSimulator simulator(options);
  return FindCapacity([&](const Trace& trace) { return simulator.Run(trace); }, search);
}

void WriteTelemetry(const SimResult& result) {
  std::ostringstream csv;
  WriteRequestMetricsCsv(result, csv);
  WriteAggregateCsv(result, csv);
  WriteTbtSamplesCsv(result, csv);
}

class Workload {
 public:
  virtual ~Workload() = default;
  // One timed operation on input `input`.
  virtual OpOutput Run(int input, Spans* spans) = 0;
  // Traced runs only: re-executes part of the operation that just ran to
  // isolate one layer. Its spans sit outside the operation's root span.
  virtual void Replay(const OpOutput& /*op*/, Spans* /*spans*/) {}
  // Compares operation `op` on input `input` against its reference; returns
  // an error, empty when they agree.
  virtual std::string ReferenceCheck(int input, const OpOutput& op) = 0;

  // Seconds the set-up spent generating each input.
  const std::vector<double>& generate_s() const { return generate_s_; }
  // Probes of the set-up's capacity search; 0 when it runs none.
  int64_t setup_probes() const { return setup_probes_; }

 protected:
  std::vector<double> generate_s_;
  int64_t setup_probes_ = 0;
};

// One replica serving a ShareGPT4 Poisson trace at half its measured
// capacity. The checked variant serves half as many requests on a KV pool
// shrunk until admission pressure forces preemption-recompute (which the
// checker's token conservation covers), with the checker attached.
class ReplicaWorkload : public Workload {
 public:
  ReplicaWorkload(bool checked, const std::vector<uint64_t>& input_seeds) : checked_(checked) {
    if (checked_) options_.kv_capacity_tokens = kCheckedKvCapacityTokens;
    slo_s_ = StrictTbtSlo(options_);
    // On the full KV pool: the checked variant's load is the replica's.
    CapacityResult capacity = StrictCapacity(ReplicaOptions(), slo_s_);
    setup_probes_ = capacity.probes;
    double qps = kLoad * capacity.capacity_qps;
    int64_t requests = checked_ ? kRequests / 2 : kRequests;
    for (uint64_t seed : input_seeds) {
      Clock::time_point start = Clock::now();
      traces_.push_back(GenerateTrace(OpenChatShareGpt4(), {requests, qps, seed}));
      generate_s_.push_back(SecondsSince(start));
    }
  }

  OpOutput Run(int input, Spans* spans) override {
    return Simulate(input, spans, options_, checked_);
  }

  // Telemetry export of the result and, when checked, the same input
  // without the checker (the difference is the checker's cost).
  void Replay(const OpOutput& op, Spans* spans) override {
    {
      Spans::Scope scope(spans, "telemetry");
      WriteTelemetry(op.result);
    }
    if (checked_) {
      Spans::Scope scope(spans, "unchecked_replay");
      SimulatorOptions options = options_;
      options.cost_model = FreshCostModel(options);
      ReplicaSimulator(options).Run(*op.trace);
    }
  }

  // The reference path, without the checker, must reproduce the result.
  std::string ReferenceCheck(int input, const OpOutput& op) override {
    SimulatorOptions options = options_;
    UseReferencePath(&options);
    OpOutput reference = Simulate(input, nullptr, options, false);
    Verify(&reference);
    return reference.digest == op.digest ? "" : "the reference simulation differs";
  }

 private:
  static constexpr int64_t kRequests = 2048;
  static constexpr double kLoad = 0.5;
  // 2048 blocks of 16 tokens.
  static constexpr int64_t kCheckedKvCapacityTokens = 32768;

  OpOutput Simulate(int input, Spans* spans, SimulatorOptions options, bool checked) {
    OpOutput out;
    out.trace = &traces_[static_cast<size_t>(input)];
    InvariantChecker checker;
    {
      Spans::Scope scope(spans, "simulate");
      if (options.cost_model == nullptr) options.cost_model = FreshCostModel(options);
      if (checked) options.checker = &checker;
      out.result = ReplicaSimulator(options).Run(*out.trace);
      out.cache = options.cost_model->cache_stats();
    }
    {
      Spans::Scope scope(spans, "stats");
      out.headline = Headline(out.result, slo_s_);
    }
    out.iterations = out.result.num_iterations;
    out.preemptions = out.result.num_preemptions;
    if (!checked) return out;
    if (!checker.ok()) {
      out.error = "invariant checker: " + checker.Report();
    } else if (checker.iterations_checked() != out.result.num_iterations) {
      out.error = "the checker saw " + std::to_string(checker.iterations_checked()) +
                  " iterations of " + std::to_string(out.result.num_iterations);
    } else if (out.result.num_preemptions == 0) {
      out.error = "the reduced KV pool never forced a preemption";
    }
    return out;
  }

  bool checked_;
  SimulatorOptions options_ = ReplicaOptions();
  double slo_s_ = 0.0;
  std::vector<Trace> traces_;
};

// A fleet on the serial engine (--jobs=1: on a shared host, worker threads
// add more run-to-run noise than the sharded speedup is worth measuring end
// to end; the traced run measures the sharded engine as a layer).
class FleetWorkload : public Workload {
 public:
  // The 200-replica round of bench_ext_cluster_scale, or with `day` its
  // --quick autoscaled diurnal fleet-day.
  FleetWorkload(bool day, const std::vector<uint64_t>& input_seeds) : day_(day) {
    options_.replica = ReplicaOptions();
    options_.num_replicas = kReplicas;
    options_.routing = RoutingPolicy::kRoundRobin;
    options_.jobs = 1;
    if (day_) {
      options_.autoscale.min_replicas = 4;
      options_.autoscale.scale_out_queue_s = 0.25;
      options_.autoscale.scale_in_queue_s = 0.05;
      options_.autoscale.provisioning_lag_s = 10.0;
      options_.autoscale.eval_interval_s = 5.0;
      options_.autoscale.cooldown_s = 10.0;
    }
    slo_s_ = StrictTbtSlo(options_.replica);
    for (uint64_t seed : input_seeds) {
      Clock::time_point start = Clock::now();
      traces_.push_back(day_ ? DayTrace(seed) : RoundTrace(seed));
      generate_s_.push_back(SecondsSince(start));
    }
  }

  OpOutput Run(int input, Spans* spans) override { return Simulate(input, spans, options_); }

  // Telemetry export; for the round, every replica re-simulated standalone
  // on the sub-trace the router gave it, with one shared cost model as in
  // the serial engine (what remains of the cluster run is the engine's own
  // work: routing, round bookkeeping and the merge); and the whole run on
  // kShards shards.
  void Replay(const OpOutput& op, Spans* spans) override {
    {
      Spans::Scope scope(spans, "telemetry");
      WriteTelemetry(op.result);
    }
    if (!day_) {
      std::vector<Trace> sub(kReplicas);
      for (size_t i = 0; i < op.trace->size(); ++i) {
        sub[static_cast<size_t>(assignment_[i])].requests.push_back(op.trace->requests[i]);
      }
      Spans::Scope scope(spans, "replica_replay");
      SimulatorOptions options = options_.replica;
      options.cost_model = FreshCostModel(options);
      for (const Trace& trace : sub) {
        if (!trace.empty()) ReplicaSimulator(options).Run(trace);
      }
    }
    Spans::Scope scope(spans, "sharded_replay");
    ClusterOptions options = options_;
    options.jobs = kShards;
    ClusterSimulator(options).Run(*op.trace);
  }

  // The serial engine on the reference path must reproduce the result.
  std::string ReferenceCheck(int input, const OpOutput& op) override {
    ClusterOptions options = options_;
    UseReferencePath(&options.replica);
    OpOutput reference = Simulate(input, nullptr, options);
    Verify(&reference);
    return reference.digest == op.digest ? "" : "the reference simulation differs";
  }

 private:
  static constexpr int kReplicas = 200;
  static constexpr int kShards = 4;

  static Trace RoundTrace(uint64_t seed) {
    // bench_ext_cluster_scale's shape and rate, with Poisson arrivals.
    Trace trace = GenerateTrace(OpenChatShareGpt4(), {20000, 100.0, seed});
    for (Request& request : trace.requests) {
      request.prompt_tokens = 256;
      request.output_tokens = 32;
    }
    return trace;
  }

  static Trace DayTrace(uint64_t seed) {
    DiurnalOptions day;
    day.mean_qps = 12.0;
    day.duration_s = 8640.0;
    day.period_s = day.duration_s;
    day.peak_at_s = day.duration_s / 2.0;
    day.peak_to_trough = 6.0;
    day.seed = seed;
    return UniformDiurnalTrace(day, 512, 64);
  }

  OpOutput Simulate(int input, Spans* spans, const ClusterOptions& options) {
    OpOutput out;
    out.trace = &traces_[static_cast<size_t>(input)];
    {
      Spans::Scope scope(spans, "simulate");
      ClusterSimulator simulator(options);
      out.result = simulator.Run(*out.trace);
      out.cache = simulator.cost_cache_stats();
      assignment_ = simulator.last_assignment();
    }
    {
      Spans::Scope scope(spans, "stats");
      out.headline = Headline(out.result, slo_s_);
    }
    out.iterations = out.result.num_iterations;
    out.preemptions = out.result.num_preemptions;
    out.outcome = {static_cast<double>(out.result.autoscale_out),
                   static_cast<double>(out.result.autoscale_in),
                   static_cast<double>(out.result.peak_provisioned_replicas),
                   out.result.replica_seconds_provisioned};
    if (std::count(assignment_.begin(), assignment_.end(), -1) > 0) {
      out.error = "the router shed requests";
    } else if (day_ && out.result.autoscale_out == 0) {
      out.error = "the autoscaler never scaled out";
    }
    return out;
  }

  bool day_;
  ClusterOptions options_;
  double slo_s_ = 0.0;
  std::vector<Trace> traces_;
  std::vector<int> assignment_;  // Of the most recent run.
};

// Runs `argv` to completion with stdout and stderr sent to a fresh file
// `log`; returns its exit status, or -1 when it could not run or did not exit
// normally.
int RunChild(const std::vector<std::string>& argv, const std::string& log) {
  // Replaced, not truncated: ext4 flushes a file truncated over written
  // data to disk, which costs tens of milliseconds.
  std::remove(log.c_str());
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = 0;
  int spawned = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// A sarathi_fuzz campaign in a child process; the fuzzer binary sits next
// to this one. Its fingerprints and report go to files in that directory.
class FuzzWorkload : public Workload {
 public:
  FuzzWorkload(const std::string& directory, const std::vector<uint64_t>& input_seeds)
      : fuzzer_(directory + "/sarathi_fuzz"),
        fingerprints_(directory + "/fuzz_fingerprints.csv"),
        log_(directory + "/fuzz_log.txt") {
    // The fuzzer's set-up: a smoke run on the pool's last seed.
    std::string smoke_start = "--start=" + std::to_string(kSeedPool - 1);
    if (RunChild({fuzzer_, "--seeds=1", smoke_start}, log_) != 0) {
      setup_error_ = "the fuzzer's smoke run failed: " + ReadFile(log_);
    }
    // Fuzz seeds differ in cost (72-seed campaigns by about 10%), so a run's
    // campaigns tile one stretch of the pool rather than land anywhere in it.
    uint64_t slack = kSeedPool - input_seeds.size() * kSeedsPerCampaign;
    for (size_t i = 0; i < input_seeds.size(); ++i) {
      starts_.push_back(input_seeds[0] % (slack + 1) + i * kSeedsPerCampaign);
    }
    generate_s_.assign(starts_.size(), 0.0);
  }

  OpOutput Run(int input, Spans* spans) override { return Campaign(input, spans, 1); }

  // The campaign fanned over two threads must report the same fingerprints.
  std::string ReferenceCheck(int input, const OpOutput& op) override {
    OpOutput fanned = Campaign(input, nullptr, 2);
    Verify(&fanned);
    if (!setup_error_.empty()) return setup_error_;
    return fanned.error.empty() && fanned.digest == op.digest
               ? ""
               : "the campaign on two threads differs";
  }

 private:
  static constexpr uint64_t kSeedsPerCampaign = 72;
  // Campaigns run within fuzz seeds [0, kSeedPool), all of which the fuzzer
  // runs clean; a few seeds beyond abort it (646 on a cluster routing CHECK,
  // 5290 on a block-manager CHECK).
  static constexpr uint64_t kSeedPool = 640;

  OpOutput Campaign(int input, Spans* spans, int jobs) {
    OpOutput out;
    int status = 0;
    std::remove(fingerprints_.c_str());  // Replaced, not truncated (see RunChild).
    {
      Spans::Scope scope(spans, "simulate");
      status = RunChild({fuzzer_, "--seeds=" + std::to_string(kSeedsPerCampaign),
                         "--start=" + std::to_string(starts_[static_cast<size_t>(input)]),
                         "--jobs=" + std::to_string(jobs), "--fingerprint-out=" + fingerprints_},
                        log_);
    }
    out.text = ReadFile(fingerprints_);
    std::string report = ReadFile(log_);
    int64_t lines = std::count(out.text.begin(), out.text.end(), '\n');
    if (status != 0 || report.find(" 0 violations") == std::string::npos) {
      out.error = "the fuzzer exited with status " + std::to_string(status) + ": " + report;
    } else if (lines != static_cast<int64_t>(kSeedsPerCampaign)) {
      out.error = "the fuzzer fingerprinted " + std::to_string(lines) + " seeds";
    } else {
      long long runs = 0;
      std::sscanf(report.c_str() + report.rfind("fuzz clean:"), "fuzz clean: %*d seeds, %lld runs",
                  &runs);
      out.fuzz_runs = runs;
    }
    return out;
  }

  std::string fuzzer_;
  std::string fingerprints_;
  std::string log_;
  std::string setup_error_;
  std::vector<uint64_t> starts_;
};

const char* const kWorkloads[] = {"replica", "cluster", "fleet", "fuzz", "checked"};

// Builds workload `name` on the given inputs (the set-up); `directory` holds
// this binary.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, const std::string& directory,
                                       const std::vector<uint64_t>& input_seeds) {
  if (name == "replica") return std::make_unique<ReplicaWorkload>(false, input_seeds);
  if (name == "cluster") return std::make_unique<FleetWorkload>(false, input_seeds);
  if (name == "fleet") return std::make_unique<FleetWorkload>(true, input_seeds);
  if (name == "fuzz") return std::make_unique<FuzzWorkload>(directory, input_seeds);
  if (name == "checked") return std::make_unique<ReplicaWorkload>(true, input_seeds);
  return nullptr;
}

// ---- Reporting ------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = std::stoi(value);
      } else if (key == "--spans-out") {
        args->spans_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_seed && args->seconds > 0.0 && (args->trace == 0 || args->trace == 1) &&
         std::find(std::begin(kWorkloads), std::end(kWorkloads), args->workload) !=
             std::end(kWorkloads);
}

// Median per-operation value of every per-layer metric, from the spans and
// the counters of the measured operations; workload_ms (the median input's
// generation time) and capacity_probes come from the last set-up.
std::vector<Metric> LayerMetrics(const Spans& spans, const std::vector<OpOutput>& outputs,
                                 const Workload& workload) {
  static constexpr std::pair<const char*, const char*> kLayers[] = {
      {"workload_ms", "ms"},       {"simulate_ms", "ms"},
      {"stats_ms", "ms"},          {"op_self_ms", "ms"},
      {"telemetry_ms", "ms"},      {"checker_ms", "ms"},
      {"cluster_engine_ms", "ms"}, {"sharded_simulate_ms", "ms"},
      {"sim_iterations", "count"}, {"preemptions", "count"},
      {"capacity_probes", "count"}, {"fuzz_runs", "count"},
      {"cost_lookups", "count"},    {"cost_cache_hit_pct", "%"},
  };
  auto pct = [](int64_t part, int64_t whole) {
    return whole > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  std::map<std::string, std::vector<double>> samples;
  for (double s : workload.generate_s()) samples["workload_ms"].push_back(1e3 * s);
  samples["capacity_probes"].push_back(static_cast<double>(workload.setup_probes()));
  for (size_t op = 0; op < outputs.size(); ++op) {
    std::map<std::string, double> self;
    std::map<std::string, double> duration;
    spans.Totals(static_cast<int64_t>(op), &self, &duration);
    const OpOutput& out = outputs[op];
    // A replay re-executes the simulation minus one layer, so that layer's
    // cost is the operation's simulate time minus the replay's.
    auto minus_replay = [&](const char* replay) {
      return duration.count(replay) ? 1e3 * (duration["simulate"] - duration[replay]) : 0.0;
    };
    int64_t lookups = out.cache.Hits() + out.cache.Misses();
    std::map<std::string, double> values = {
        {"simulate_ms", 1e3 * self["simulate"]},
        {"stats_ms", 1e3 * self["stats"]},
        {"op_self_ms", 1e3 * self["op"]},
        {"telemetry_ms", 1e3 * duration["telemetry"]},
        {"checker_ms", minus_replay("unchecked_replay")},
        {"cluster_engine_ms", minus_replay("replica_replay")},
        {"sharded_simulate_ms", 1e3 * duration["sharded_replay"]},
        {"sim_iterations", static_cast<double>(out.iterations)},
        {"preemptions", static_cast<double>(out.preemptions)},
        {"fuzz_runs", static_cast<double>(out.fuzz_runs)},
        {"cost_lookups", static_cast<double>(lookups)},
        {"cost_cache_hit_pct", pct(out.cache.Hits(), lookups)},
    };
    for (const auto& [name, value] : values) samples[name].push_back(value);
  }
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayers) metrics.push_back({name, unit, Median(samples[name])});
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload replica|cluster|fleet|fuzz|checked --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n";
    return 2;
  }
  std::string self = argv[0];
  std::string directory = self.find('/') == std::string::npos
                              ? "."
                              : self.substr(0, self.rfind('/'));
  std::vector<uint64_t> input_seeds;
  for (uint64_t i = 0; i < kInputs; ++i) input_seeds.push_back(SplitMix64(args.seed * kInputs + i));

  // Set-up: build the workload and its inputs, several times over; setup_s
  // is the median.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    workload.reset();
    Clock::time_point start = Clock::now();
    workload = MakeWorkload(args.workload, directory, input_seeds);
    setup_s.push_back(SecondsSince(start));
  }

  // Verifies an operation on input `input`; its digest must repeat.
  std::vector<uint64_t> digests(kInputs, 0);
  std::string first_error;
  auto verify = [&](int input, OpOutput* out) {
    Verify(out);
    uint64_t& expected = digests[static_cast<size_t>(input)];
    if (out->error.empty() && expected != 0 && expected != out->digest) {
      out->error = "repeating input " + std::to_string(input) + " changed the result";
    }
    expected = out->digest;
    if (!out->error.empty() && first_error.empty()) first_error = out->error;
    return out->error.empty();
  };

  // A warm-up operation on input 0, checked against its reference.
  bool reference_ok = true;
  {
    OpOutput warm = workload->Run(0, nullptr);
    reference_ok = verify(0, &warm);
    std::string error = workload->ReferenceCheck(0, warm);
    if (!error.empty()) {
      reference_ok = false;
      if (first_error.empty()) first_error = error;
    }
  }

  // Measured operations: cycle through the inputs until --seconds have
  // elapsed, at least kMinRounds times each. An input's simulation is
  // deterministic, so its repeats differ only by host interference; its
  // fastest repeat is its cost.
  Spans spans;
  Spans* recorder = args.trace == 1 ? &spans : nullptr;
  std::vector<double> best_s(kInputs, std::numeric_limits<double>::infinity());
  std::vector<OpOutput> outputs;
  int64_t failed = 0;
  Clock::time_point measure_start = Clock::now();
  for (int64_t op = 0; op < kMinRounds * kInputs || SecondsSince(measure_start) < args.seconds;
       ++op) {
    int input = static_cast<int>(op % kInputs);
    spans.set_op(op);
    Clock::time_point start = Clock::now();
    OpOutput out;
    {
      Spans::Scope scope(recorder, "op");
      out = workload->Run(input, recorder);
    }
    best_s[static_cast<size_t>(input)] =
        std::min(best_s[static_cast<size_t>(input)], SecondsSince(start));
    if (recorder != nullptr) workload->Replay(out, recorder);
    if (!verify(input, &out)) ++failed;
    // Keep the counters; drop the bulky per-request metrics.
    out.result.requests.clear();
    out.result.requests.shrink_to_fit();
    outputs.push_back(std::move(out));
  }
  if (!first_error.empty()) std::cerr << "check failed: " << first_error << "\n";

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"run_ms", "ms", 1e3 * Mean(best_s)},
        {"setup_s", "s", Median(setup_s)},
    };
  } else {
    metrics = LayerMetrics(spans, outputs, *workload);
    if (!args.spans_out.empty() && !spans.WriteCsv(args.spans_out)) {
      std::cerr << "could not write " << args.spans_out << "\n";
    }
  }
  PrintResult(failed == 0 && reference_ok, static_cast<int64_t>(outputs.size()), failed,
              metrics);
  return 0;
}
