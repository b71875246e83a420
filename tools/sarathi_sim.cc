// sarathi_sim: command-line driver for the serving simulator.
//
// Examples:
//   sarathi_sim --model=yi-34b --policy=sarathi --budget=512
//               --dataset=sharegpt --qps=1.0 --requests=128
//   sarathi_sim --model=mistral-7b --policy=vllm --capacity --slo=strict
//   sarathi_sim --model=yi-34b --policy=sarathi --derive-budget --slo=0.2
//               --trace=mytrace.csv --telemetry-dir=/tmp --telemetry-prefix=run1
// (flags shown on continuation lines belong to the command above them)
//
// Run with --help for the full flag list.

#include <iostream>
#include <memory>
#include <string>

#include "src/common/args.h"
#include "src/common/table.h"
#include "src/core/serving_system.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/slo_monitor.h"
#include "src/obs/tracer.h"
#include "src/scheduler/token_budget.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/telemetry.h"
#include "src/workload/conversation.h"
#include "src/workload/diurnal.h"
#include "src/workload/trace_io.h"

namespace sarathi {
namespace {

constexpr char kUsage[] = R"(sarathi_sim: LLM serving simulator (Sarathi-Serve reproduction)

Deployment:
  --model=mistral-7b|yi-34b|llama2-70b|falcon-180b|falcon-180b-tp8
Scheduler:
  --policy=sarathi|vllm|orca|ft|fastserve|vtc   (default sarathi)
  --budget=N                           Sarathi token budget (default 512)
  --derive-budget                      derive the budget from --slo instead
  --max-batch=N                        max sequences per batch (default 128)
  --no-chunking / --no-hybrid          Table-4 ablation switches
Workload (pick one):
  --dataset=sharegpt|arxiv|conversations --qps=Q --requests=N --seed=S
      (conversations: multi-turn rounds; --qps sets conversation starts/s)
  --trace=PATH                         load a CSV trace (see trace_io.h)
  --save-trace=PATH                    also save the generated trace
Traffic shape (non-homogeneous arrivals; --qps sets the mean/base rate):
  --trace-shape=diurnal|flash          sinusoidal day/night or flash-crowd spike
  --duration=S                         trace span in seconds (default 86400
                                       diurnal, 3600 flash); request count
                                       follows from the rate, not --requests
  --peak-to-trough=R --period=S        diurnal modulation depth and period
  --peak-at=S                          time of the first diurnal peak
  --flash-at=S --flash-duration=S      flash-crowd spike window
  --flash-mult=M                       spike rate as a multiple of --qps
  --prompt=N --output=N                fixed request shape instead of sampling
                                       from --dataset (0 = sample)
Cluster:
  --replicas=N                         simulate N identical replicas (default 1)
  --routing=rr|least-work              router policy (default least-work)
  --jobs=N                             shard replica simulation across N worker
                                       threads (default 1; 0 = all cores);
                                       results are identical for any N
Autoscaling (enabled when --autoscale-min >= 1; --replicas is the ceiling):
  --autoscale-min=N                    always-provisioned replica floor
  --autoscale-out-queue=S              scale out above S seconds of mean backlog
                                       (default 4.0)
  --autoscale-in-queue=S               scale in below S seconds (default 0.5)
  --autoscale-lag=S                    provisioning lag before a new replica
                                       serves (default 30.0)
  --autoscale-tbt-slo=S                also scale out when windowed predicted
                                       P99 TBT exceeds S seconds (0 = off)
  --autoscale-every=S                  evaluation interval (default 5.0)
  --autoscale-cooldown=S               min gap between scale events (default 30.0)
Faults (any of these routes the run through the cluster simulator):
  --mtbf=S --mttr=S                    replica crash process, exponential (s)
  --timeout-prob=P --timeout=S         client-timeout probability and mean (s)
  --fault-seed=S                       fault schedule seed (default 42)
  --max-retries=N                      crash re-route attempts (default 2)
  --shed-after=S                       shed arrivals beyond S seconds of backlog
Gray failures (degraded replicas; also route through the cluster simulator):
  --degrade-mtbf=S --degrade-mttr=S    slowdown-episode process, exponential (s)
  --degrade-min-factor=F               episode slowdown range (default 1.5-4.0),
  --degrade-max-factor=F               uniform per episode
  --jitter-prob=P --jitter-max=X       per-iteration transient jitter: with
                                       probability P stretch by up to 1+X
  --probe-interval=S                   health-probe cadence (default 0.25)
  --hedge-after=S                      hedge requests stuck on a degraded
                                       replica after S seconds (0 = off)
  --failover=none|recompute|migrate    degraded-replica failover (default none)
Overload control (any of these also routes through the cluster simulator):
  --admission=S                        SLO-aware admission: shed arrivals whose
                                       predicted TTFT exceeds S seconds (0 = off)
  --queue-limit=S                      CoDel bounded queue: drop from the head
                                       once its delay stands above S (0 = off)
  --brownout                           enable the overload ladder (budget growth,
                                       batch-lane output caps and shedding)
  --batch-frac=F                       mark fraction F of requests batch-lane
                                       (QoS lanes on; rest are interactive)
  --retry-budget=R                     token-bucket retry budget: R retry tokens
                                       credited per admitted request (0 = off)
  --retry-jitter                       full-jitter crash-retry backoff
  --backpressure=S                     route around replicas with more than S
                                       seconds of outstanding work (0 = off)
Cascade resilience (correlated domains; also route through the cluster simulator):
  --domains=N                          group replicas into N failure domains
  --domain-mtbf=S --domain-mttr=S      whole-domain fault process, exponential (s)
  --partition-frac=P                   fraction of domain faults that are network
                                       partitions instead of crashes (default 0)
  --timeout-retries=N                  client re-offers after a timeout, up to N
                                       times with a fresh deadline (0 = off; the
                                       metastable amplification source)
  --timeout-retry-backoff=S            fixed re-offer backoff (default 1.0)
  --cascade-breaker                    engage the cascade breaker when offered
                                       load outruns surviving capacity
  --cascade-headroom=F                 breaker admission fraction of surviving
                                       capacity while engaged (default 0.85)
  --slow-start                         ramp rejoining replicas back to full load
  --slow-start-ramp=S                  ramp length per rejoin (default 5.0)
  --slow-start-stagger=S               per-domain-member gate stagger (default 1.0)
Evaluation:
  --capacity                           binary-search max sustainable QPS
  --slo=strict|relaxed|SECONDS         P99-TBT target (default strict)
Output:
  --telemetry-dir=DIR --telemetry-prefix=P   export per-iteration/request CSVs
  --iterations                         record per-iteration log (implied by telemetry)
  --trace-out=FILE.json                Chrome trace-event JSON (chrome://tracing,
                                       https://ui.perfetto.dev)
  --spans-out=FILE.csv                 per-request lifecycle span CSV
  --timeseries-out=FILE.csv            windowed metric time series CSV
  --timeseries-window=S                time-series window length (default 1.0)
  --prom-out=FILE.txt                  Prometheus text exposition of final metrics
  --flight-out=FILE.json               always-on flight recorder: auto-dumps the
                                       most recent events as Chrome trace JSON on
                                       a trigger (invariant violation, SLO burn
                                       alert, brownout escalation, replica
                                       crash); written at exit if never triggered
  --flight-capacity=N                  flight ring capacity in events (default 4096)
SLO burn-rate monitoring (alerts land in the trace, metrics and flight sinks):
  --slo-ttft=S                         TTFT SLO threshold, seconds (0 = off)
  --slo-tbt=S                          TBT SLO threshold, seconds (0 = off)
  --slo-target=F                       attainment target (default 0.99)
  --slo-out=FILE.csv                   write the burn-rate alert log CSV
)";

StatusOr<Deployment> PickDeployment(const std::string& name) {
  if (name == "mistral-7b") return MistralOnA100();
  if (name == "yi-34b") return YiOnA100Tp2();
  if (name == "llama2-70b") return LlamaOnA40Tp4Pp2();
  if (name == "falcon-180b") return FalconOnA100Tp4Pp2();
  if (name == "falcon-180b-tp8") return FalconOnA100Tp8();
  return InvalidArgumentError("unknown --model '" + name + "'");
}

StatusOr<SchedulerConfig> PickScheduler(const ArgParser& args) {
  std::string policy = args.GetString("policy", "sarathi");
  auto budget = args.GetInt("budget", 512);
  RETURN_IF_ERROR(budget.status());
  auto max_batch = args.GetInt("max-batch", 128);
  RETURN_IF_ERROR(max_batch.status());
  SchedulerConfig config;
  if (policy == "sarathi") {
    config = SarathiConfig(*budget, *max_batch);
  } else if (policy == "vllm") {
    config = VllmConfig(*max_batch);
  } else if (policy == "orca") {
    config = OrcaConfig(*max_batch);
  } else if (policy == "ft") {
    config = FasterTransformerConfig(*max_batch);
  } else if (policy == "fastserve") {
    config.policy = SchedulerPolicy::kFastServe;
    config.max_batch_size = *max_batch;
  } else if (policy == "vtc") {
    config = SarathiConfig(*budget, *max_batch);
    config.policy = SchedulerPolicy::kVtc;
  } else {
    return InvalidArgumentError("unknown --policy '" + policy + "'");
  }
  config.enable_chunking = !args.GetBool("no-chunking", false);
  config.enable_hybrid = !args.GetBool("no-hybrid", false);
  return config;
}

StatusOr<double> PickSlo(const ArgParser& args, const SloSpec& slo) {
  std::string value = args.GetString("slo", "strict");
  if (value == "strict") return slo.strict_p99_tbt_s;
  if (value == "relaxed") return slo.relaxed_p99_tbt_s;
  char* end = nullptr;
  double seconds = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || seconds <= 0.0) {
    return InvalidArgumentError("--slo expects strict, relaxed or seconds; got '" + value + "'");
  }
  return seconds;
}

StatusOr<Trace> PickTrace(const ArgParser& args) {
  std::string path = args.GetString("trace", "");
  if (!path.empty()) {
    return LoadTrace(path);
  }
  std::string dataset_name = args.GetString("dataset", "sharegpt");
  auto requests = args.GetInt("requests", 128);
  RETURN_IF_ERROR(requests.status());
  auto qps = args.GetDouble("qps", 1.0);
  RETURN_IF_ERROR(qps.status());
  auto seed = args.GetInt("seed", 42);
  RETURN_IF_ERROR(seed.status());

  std::string shape = args.GetString("trace-shape", "");
  if (!shape.empty()) {
    if (shape != "diurnal" && shape != "flash") {
      return InvalidArgumentError("unknown --trace-shape '" + shape + "'");
    }
    auto duration = args.GetDouble("duration", shape == "diurnal" ? 86400.0 : 3600.0);
    auto prompt = args.GetInt("prompt", 0);
    auto output = args.GetInt("output", 0);
    RETURN_IF_ERROR(duration.status());
    RETURN_IF_ERROR(prompt.status());
    RETURN_IF_ERROR(output.status());
    DatasetSpec dataset =
        dataset_name == "arxiv" ? ArxivSummarization() : OpenChatShareGpt4();
    bool fixed_shape = *prompt > 0 && *output > 0;
    if (shape == "diurnal") {
      DiurnalOptions diurnal;
      diurnal.mean_qps = *qps;
      diurnal.duration_s = *duration;
      auto ptt = args.GetDouble("peak-to-trough", 4.0);
      auto period = args.GetDouble("period", 86400.0);
      auto peak_at = args.GetDouble("peak-at", 43200.0);
      RETURN_IF_ERROR(ptt.status());
      RETURN_IF_ERROR(period.status());
      RETURN_IF_ERROR(peak_at.status());
      diurnal.peak_to_trough = *ptt;
      diurnal.period_s = *period;
      diurnal.peak_at_s = *peak_at;
      diurnal.seed = static_cast<uint64_t>(*seed);
      return fixed_shape ? UniformDiurnalTrace(diurnal, *prompt, *output)
                         : GenerateDiurnalTrace(dataset, diurnal);
    }
    FlashCrowdOptions flash;
    flash.base_qps = *qps;
    flash.duration_s = *duration;
    auto flash_at = args.GetDouble("flash-at", 1200.0);
    auto flash_duration = args.GetDouble("flash-duration", 300.0);
    auto flash_mult = args.GetDouble("flash-mult", 8.0);
    RETURN_IF_ERROR(flash_at.status());
    RETURN_IF_ERROR(flash_duration.status());
    RETURN_IF_ERROR(flash_mult.status());
    flash.flash_at_s = *flash_at;
    flash.flash_duration_s = *flash_duration;
    flash.flash_mult = *flash_mult;
    flash.seed = static_cast<uint64_t>(*seed);
    return fixed_shape ? UniformFlashCrowdTrace(flash, *prompt, *output)
                       : GenerateFlashCrowdTrace(dataset, flash);
  }

  if (dataset_name == "conversations") {
    ConversationOptions conversation;
    conversation.num_conversations = *requests;
    conversation.start_qps = *qps;
    conversation.seed = static_cast<uint64_t>(*seed);
    return GenerateConversationTrace(conversation);
  }
  DatasetSpec dataset;
  if (dataset_name == "sharegpt") {
    dataset = OpenChatShareGpt4();
  } else if (dataset_name == "arxiv") {
    dataset = ArxivSummarization();
  } else {
    return InvalidArgumentError("unknown --dataset '" + dataset_name + "'");
  }
  TraceOptions options;
  options.num_requests = *requests;
  options.qps = *qps;
  options.seed = static_cast<uint64_t>(*seed);
  return GenerateTrace(dataset, options);
}

int RunMain(int argc, char** argv) {
  auto parsed = ArgParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n" << kUsage;
    return 2;
  }
  ArgParser args = std::move(parsed).value();
  if (args.GetBool("help", false)) {
    std::cout << kUsage;
    return 0;
  }

  auto deployment = PickDeployment(args.GetString("model", "yi-34b"));
  if (!deployment.ok()) {
    std::cerr << deployment.status().ToString() << "\n";
    return 2;
  }
  auto scheduler = PickScheduler(args);
  if (!scheduler.ok()) {
    std::cerr << scheduler.status().ToString() << "\n";
    return 2;
  }

  IterationCostModel cost_model(deployment->model, deployment->cluster, deployment->parallel);
  auto slo = PickSlo(args, DeriveSlo(cost_model));
  if (!slo.ok()) {
    std::cerr << slo.status().ToString() << "\n";
    return 2;
  }
  if (args.GetBool("derive-budget", false)) {
    TokenBudgetOptions budget_options;
    budget_options.tbt_slo_s = *slo;
    budget_options.max_batch_size = scheduler->max_batch_size;
    scheduler->token_budget = ComputeTokenBudget(cost_model, budget_options);
    std::cout << "Derived token budget: " << scheduler->token_budget << " (SLO " << *slo
              << " s)\n";
  }

  ServingSystem system(*deployment, *scheduler);

  if (args.GetBool("capacity", false)) {
    auto requests = args.GetInt("requests", 192);
    auto seed = args.GetInt("seed", 42);
    std::string dataset_name = args.GetString("dataset", "sharegpt");
    DatasetSpec dataset = dataset_name == "arxiv" ? ArxivSummarization() : OpenChatShareGpt4();
    if (!requests.ok() || !seed.ok()) {
      std::cerr << "bad --requests/--seed\n";
      return 2;
    }
    CapacityResult capacity = system.MeasureCapacity(dataset, *slo, *requests,
                                                     static_cast<uint64_t>(*seed));
    Table table({"metric", "value"});
    table.AddRow({"deployment", deployment->Name()});
    table.AddRow({"scheduler", std::string(SchedulerPolicyName(scheduler->policy))});
    table.AddRow({"P99 TBT SLO (s)", Table::Num(*slo, 3)});
    table.AddRow({"capacity (qps)", Table::Num(capacity.capacity_qps, 3)});
    table.AddRow({"P99 TBT at capacity (s)", Table::Num(capacity.p99_tbt_s, 3)});
    table.AddRow({"median TTFT at capacity (s)", Table::Num(capacity.median_ttft_s, 3)});
    table.AddRow({"probes", Table::Int(capacity.probes)});
    table.Print();
    return 0;
  }

  auto trace = PickTrace(args);
  if (!trace.ok()) {
    std::cerr << trace.status().ToString() << "\n";
    return 2;
  }
  std::string save_path = args.GetString("save-trace", "");
  if (!save_path.empty()) {
    Status saved = SaveTrace(*trace, save_path);
    if (!saved.ok()) {
      std::cerr << saved.ToString() << "\n";
      return 1;
    }
  }

  std::string telemetry_dir = args.GetString("telemetry-dir", "");
  bool record = args.GetBool("iterations", false) || !telemetry_dir.empty();

  auto replicas = args.GetInt("replicas", 1);
  if (!replicas.ok() || *replicas < 1) {
    std::cerr << "--replicas expects a positive integer\n";
    return 2;
  }

  // ---- Fault flags ----
  FaultOptions faults;
  auto mtbf = args.GetDouble("mtbf", 0.0);
  auto mttr = args.GetDouble("mttr", 30.0);
  auto timeout_prob = args.GetDouble("timeout-prob", 0.0);
  auto timeout_s = args.GetDouble("timeout", 0.0);
  auto fault_seed = args.GetInt("fault-seed", 42);
  auto max_retries = args.GetInt("max-retries", 2);
  auto shed_after = args.GetDouble("shed-after", 0.0);
  if (!mtbf.ok() || !mttr.ok() || !timeout_prob.ok() || !timeout_s.ok() || !fault_seed.ok() ||
      !max_retries.ok() || !shed_after.ok()) {
    std::cerr << "bad fault flag (--mtbf/--mttr/--timeout-prob/--timeout/--fault-seed/"
                 "--max-retries/--shed-after)\n";
    return 2;
  }
  faults.mtbf_s = *mtbf;
  faults.mttr_s = *mttr;
  faults.request_timeout_probability = *timeout_prob;
  faults.request_timeout_s = *timeout_s;
  faults.seed = static_cast<uint64_t>(*fault_seed);

  // ---- Gray-failure flags ----
  auto degrade_mtbf = args.GetDouble("degrade-mtbf", 0.0);
  auto degrade_mttr = args.GetDouble("degrade-mttr", 20.0);
  auto degrade_min = args.GetDouble("degrade-min-factor", 1.5);
  auto degrade_max = args.GetDouble("degrade-max-factor", 4.0);
  auto jitter_prob = args.GetDouble("jitter-prob", 0.0);
  auto jitter_max = args.GetDouble("jitter-max", 0.0);
  auto probe_interval = args.GetDouble("probe-interval", 0.25);
  auto hedge_after = args.GetDouble("hedge-after", 0.0);
  std::string failover_name = args.GetString("failover", "none");
  if (!degrade_mtbf.ok() || !degrade_mttr.ok() || !degrade_min.ok() || !degrade_max.ok() ||
      !jitter_prob.ok() || !jitter_max.ok() || !probe_interval.ok() || !hedge_after.ok() ||
      *probe_interval <= 0.0) {
    std::cerr << "bad gray-failure flag (--degrade-mtbf/--degrade-mttr/--degrade-min-factor/"
                 "--degrade-max-factor/--jitter-prob/--jitter-max/--probe-interval/"
                 "--hedge-after)\n";
    return 2;
  }
  FailoverMode failover = FailoverMode::kNone;
  if (failover_name == "recompute") {
    failover = FailoverMode::kRecompute;
  } else if (failover_name == "migrate") {
    failover = FailoverMode::kLiveMigrate;
  } else if (failover_name != "none") {
    std::cerr << "unknown --failover '" << failover_name << "'\n";
    return 2;
  }
  faults.degrade_mtbf_s = *degrade_mtbf;
  faults.degrade_mttr_s = *degrade_mttr;
  faults.degrade_min_factor = *degrade_min;
  faults.degrade_max_factor = *degrade_max;
  faults.jitter_probability = *jitter_prob;
  faults.jitter_max_extra = *jitter_max;

  // ---- Overload-control flags ----
  auto admission = args.GetDouble("admission", 0.0);
  auto queue_limit = args.GetDouble("queue-limit", 0.0);
  bool brownout = args.GetBool("brownout", false);
  auto batch_frac = args.GetDouble("batch-frac", 0.0);
  auto retry_budget = args.GetDouble("retry-budget", 0.0);
  bool retry_jitter = args.GetBool("retry-jitter", false);
  auto backpressure = args.GetDouble("backpressure", 0.0);
  if (!admission.ok() || !queue_limit.ok() || !batch_frac.ok() || !retry_budget.ok() ||
      !backpressure.ok() || *batch_frac < 0.0 || *batch_frac > 1.0) {
    std::cerr << "bad overload flag (--admission/--queue-limit/--batch-frac/"
                 "--retry-budget/--backpressure)\n";
    return 2;
  }
  OverloadOptions overload;
  overload.admission_ttft_slo_s = *admission;
  overload.queue_limit_s = *queue_limit;
  overload.brownout = brownout;
  bool overload_run = overload.enabled() || *batch_frac > 0.0 || *retry_budget > 0.0 ||
                      retry_jitter || *backpressure > 0.0;
  if (*batch_frac > 0.0) {
    // QoS lanes: spread the batch-lane marks evenly over the trace (request i
    // is batch when the running fraction crosses an integer), deterministic
    // for a given trace and fraction.
    scheduler->qos_lanes = true;
    for (size_t i = 0; i < trace->requests.size(); ++i) {
      int64_t before = static_cast<int64_t>(static_cast<double>(i) * *batch_frac);
      int64_t after = static_cast<int64_t>(static_cast<double>(i + 1) * *batch_frac);
      if (after > before) {
        trace->requests[i].qos = QosClass::kBatch;
      }
    }
  }
  // ---- Cascade-resilience flags ----
  auto domains = args.GetInt("domains", 0);
  auto domain_mtbf = args.GetDouble("domain-mtbf", 0.0);
  auto domain_mttr = args.GetDouble("domain-mttr", 30.0);
  auto partition_frac = args.GetDouble("partition-frac", 0.0);
  auto timeout_retries = args.GetInt("timeout-retries", 0);
  auto timeout_retry_backoff = args.GetDouble("timeout-retry-backoff", 1.0);
  bool cascade_breaker = args.GetBool("cascade-breaker", false);
  auto cascade_headroom = args.GetDouble("cascade-headroom", 0.85);
  bool slow_start = args.GetBool("slow-start", false);
  auto slow_start_ramp = args.GetDouble("slow-start-ramp", 5.0);
  auto slow_start_stagger = args.GetDouble("slow-start-stagger", 1.0);
  if (!domains.ok() || !domain_mtbf.ok() || !domain_mttr.ok() || !partition_frac.ok() ||
      !timeout_retries.ok() || !timeout_retry_backoff.ok() || !cascade_headroom.ok() ||
      !slow_start_ramp.ok() || !slow_start_stagger.ok() || *domains < 0 ||
      *partition_frac < 0.0 || *partition_frac > 1.0 || *timeout_retries < 0 ||
      *timeout_retry_backoff <= 0.0) {
    std::cerr << "bad cascade flag (--domains/--domain-mtbf/--domain-mttr/"
                 "--partition-frac/--timeout-retries/--timeout-retry-backoff/"
                 "--cascade-headroom/--slow-start-ramp/--slow-start-stagger)\n";
    return 2;
  }
  faults.num_domains = static_cast<int>(*domains);
  faults.domain_mtbf_s = *domain_mtbf;
  faults.domain_mttr_s = *domain_mttr;
  faults.domain_partition_fraction = *partition_frac;
  bool cascade_run =
      *timeout_retries > 0 || cascade_breaker || slow_start || faults.any_domain_faults();

  // ---- Parallelism and autoscaling flags ----
  auto jobs = args.GetInt("jobs", 1);
  auto autoscale_min = args.GetInt("autoscale-min", 0);
  auto autoscale_out_queue = args.GetDouble("autoscale-out-queue", 4.0);
  auto autoscale_in_queue = args.GetDouble("autoscale-in-queue", 0.5);
  auto autoscale_lag = args.GetDouble("autoscale-lag", 30.0);
  auto autoscale_tbt = args.GetDouble("autoscale-tbt-slo", 0.0);
  auto autoscale_every = args.GetDouble("autoscale-every", 5.0);
  auto autoscale_cooldown = args.GetDouble("autoscale-cooldown", 30.0);
  if (!jobs.ok() || !autoscale_min.ok() || !autoscale_out_queue.ok() ||
      !autoscale_in_queue.ok() || !autoscale_lag.ok() || !autoscale_tbt.ok() ||
      !autoscale_every.ok() || !autoscale_cooldown.ok() || *autoscale_min < 0 ||
      *autoscale_min > *replicas) {
    std::cerr << "bad parallelism/autoscale flag (--jobs/--autoscale-min/"
                 "--autoscale-out-queue/--autoscale-in-queue/--autoscale-lag/"
                 "--autoscale-tbt-slo/--autoscale-every/--autoscale-cooldown)\n";
    return 2;
  }
  bool autoscale_run = *autoscale_min > 0;
  if (autoscale_run &&
      (*autoscale_out_queue <= *autoscale_in_queue || *autoscale_every <= 0.0 ||
       *autoscale_lag < 0.0 || *autoscale_cooldown < 0.0)) {
    std::cerr << "--autoscale-out-queue must exceed --autoscale-in-queue, "
                 "--autoscale-every must be positive, and --autoscale-lag/"
                 "--autoscale-cooldown must be non-negative\n";
    return 2;
  }
  bool fault_run = faults.any_faults() || *shed_after > 0.0 || overload_run || cascade_run ||
                   autoscale_run;

  // ---- Observability sinks ----
  std::string trace_out = args.GetString("trace-out", "");
  std::string spans_out = args.GetString("spans-out", "");
  std::string timeseries_out = args.GetString("timeseries-out", "");
  std::string prom_out = args.GetString("prom-out", "");
  auto window = args.GetDouble("timeseries-window", 1.0);
  if (!window.ok() || *window <= 0.0) {
    std::cerr << "--timeseries-window expects a positive number of seconds\n";
    return 2;
  }
  std::string flight_out = args.GetString("flight-out", "");
  auto flight_capacity = args.GetInt("flight-capacity", 4096);
  auto slo_ttft = args.GetDouble("slo-ttft", 0.0);
  auto slo_tbt = args.GetDouble("slo-tbt", 0.0);
  auto slo_target = args.GetDouble("slo-target", 0.99);
  std::string slo_out = args.GetString("slo-out", "");
  if (!flight_capacity.ok() || *flight_capacity <= 0 || !slo_ttft.ok() || !slo_tbt.ok() ||
      !slo_target.ok() || *slo_target <= 0.0 || *slo_target > 1.0) {
    std::cerr << "bad observability flag (--flight-capacity/--slo-ttft/--slo-tbt/"
                 "--slo-target)\n";
    return 2;
  }
  Tracer tracer;
  MetricsRegistry registry(*window);
  Tracer* tracer_ptr = trace_out.empty() && spans_out.empty() ? nullptr : &tracer;
  MetricsRegistry* metrics_ptr =
      timeseries_out.empty() && prom_out.empty() ? nullptr : &registry;

  std::unique_ptr<FlightRecorder> flight;
  if (!flight_out.empty()) {
    FlightRecorder::Options flight_options;
    flight_options.capacity = *flight_capacity;
    flight_options.dump_path = flight_out;
    flight = std::make_unique<FlightRecorder>(flight_options);
  }
  SloMonitor slo_monitor;
  if (*slo_ttft > 0.0) {
    SloPolicy policy;
    policy.name = "ttft";
    policy.signal = SloSignal::kTtft;
    policy.threshold_s = *slo_ttft;
    policy.target = *slo_target;
    slo_monitor.AddPolicy(policy);
  }
  if (*slo_tbt > 0.0) {
    SloPolicy policy;
    policy.name = "tbt";
    policy.signal = SloSignal::kTbt;
    policy.threshold_s = *slo_tbt;
    policy.target = *slo_target;
    slo_monitor.AddPolicy(policy);
  }
  if (slo_monitor.enabled()) {
    // Request-level goodput rides along with any latency SLO: completions
    // count good, sheds/timeouts/crash failures count bad.
    SloPolicy policy;
    policy.name = "goodput";
    policy.signal = SloSignal::kGoodput;
    policy.target = *slo_target;
    slo_monitor.AddPolicy(policy);
    slo_monitor.Bind(tracer_ptr, metrics_ptr, flight.get());
  }
  SloMonitor* slo_ptr = slo_monitor.enabled() ? &slo_monitor : nullptr;

  std::cout << "Deployment: " << deployment->Name();
  if (*replicas > 1) {
    std::cout << " x" << *replicas;
  }
  std::cout << "\nTrace: " << trace->Summary() << "\n";

  SimResult result;
  if (*replicas > 1 || fault_run) {
    // Fault-injected runs always go through the cluster simulator — even for
    // one replica — so crashes, retries, and shedding share one code path.
    ClusterOptions cluster;
    cluster.replica.model = deployment->model;
    cluster.replica.cluster = deployment->cluster;
    cluster.replica.parallel = deployment->parallel;
    cluster.replica.scheduler = *scheduler;
    cluster.replica.tracer = tracer_ptr;
    cluster.replica.metrics = metrics_ptr;
    cluster.replica.flight = flight.get();
    cluster.replica.slo = slo_ptr;
    cluster.replica.overload = overload;
    cluster.num_replicas = static_cast<int>(*replicas);
    cluster.faults = faults;
    cluster.max_retries = static_cast<int>(*max_retries);
    cluster.shed_outstanding_s = *shed_after;
    cluster.retry_jitter = retry_jitter;
    cluster.retry_budget_ratio = *retry_budget;
    cluster.backpressure_queue_s = *backpressure;
    cluster.prober.probe_interval_s = *probe_interval;
    cluster.hedge_after_s = *hedge_after;
    cluster.degraded_failover = failover;
    cluster.timeout_retry_max = static_cast<int>(*timeout_retries);
    cluster.timeout_retry_backoff_s = *timeout_retry_backoff;
    cluster.cascade.enabled = cascade_breaker;
    cluster.cascade.headroom = *cascade_headroom;
    cluster.slow_start.enabled = slow_start;
    cluster.slow_start.ramp_s = *slow_start_ramp;
    cluster.slow_start.stagger_s = *slow_start_stagger;
    cluster.jobs = static_cast<int>(*jobs);
    if (autoscale_run) {
      cluster.autoscale.min_replicas = static_cast<int>(*autoscale_min);
      cluster.autoscale.scale_out_queue_s = *autoscale_out_queue;
      cluster.autoscale.scale_in_queue_s = *autoscale_in_queue;
      cluster.autoscale.provisioning_lag_s = *autoscale_lag;
      cluster.autoscale.tbt_slo_s = *autoscale_tbt;
      cluster.autoscale.eval_interval_s = *autoscale_every;
      cluster.autoscale.cooldown_s = *autoscale_cooldown;
    }
    std::string routing = args.GetString("routing", "least-work");
    if (routing == "rr") {
      cluster.routing = RoutingPolicy::kRoundRobin;
    } else if (routing == "least-work") {
      cluster.routing = RoutingPolicy::kLeastOutstandingWork;
    } else {
      std::cerr << "unknown --routing '" << routing << "'\n";
      return 2;
    }
    ClusterSimulator simulator(cluster);
    result = simulator.Run(*trace);
  } else {
    (void)args.GetString("routing", "");  // Consume so no spurious warning.
    result = system.Serve(*trace, record, tracer_ptr, metrics_ptr, flight.get(), slo_ptr);
  }

  Table table({"metric", "value"});
  table.AddRow({"scheduler", result.scheduler_name});
  table.AddRow({"makespan (s)", Table::Num(result.makespan_s, 2)});
  table.AddRow({"median TTFT (s)", Table::Num(result.MedianTtft(), 3)});
  table.AddRow({"P99 TBT (s)", Table::Num(result.P99Tbt(), 3)});
  table.AddRow({"max TBT (s)", Table::Num(result.MaxTbt(), 3)});
  table.AddRow({"stalls > SLO", Table::Int(result.CountStalls(*slo))});
  table.AddRow({"median sched delay (s)", Table::Num(result.MedianSchedulingDelay(), 3)});
  table.AddRow({"output tokens/s", Table::Num(result.OutputTokenThroughput(), 1)});
  table.AddRow({"MFU", Table::Num(result.Mfu(), 3)});
  table.AddRow({"MBU", Table::Num(result.Mbu(), 3)});
  table.AddRow({"bubble fraction", Table::Num(result.BubbleFraction(), 3)});
  table.AddRow({"preemptions", Table::Int(result.num_preemptions)});
  table.AddRow({"peak KV blocks in use", Table::Int(result.peak_kv_blocks)});
  table.AddRow({"peak KV utilization", Table::Num(result.PeakKvUtilization(), 3)});
  if (fault_run) {
    table.AddRow({"goodput (req/s)", Table::Num(result.Goodput(), 3)});
    table.AddRow({"failed requests", Table::Int(result.CountFailed())});
    table.AddRow({"shed requests", Table::Int(result.num_shed)});
    table.AddRow({"retries", Table::Int(result.TotalRetries())});
    table.AddRow({"outages", Table::Int(result.num_outages)});
    if (result.num_slowdown_episodes > 0 || result.degraded_iterations > 0 ||
        faults.any_degradation()) {
      table.AddRow({"slowdown episodes", Table::Int(result.num_slowdown_episodes)});
      table.AddRow({"degraded iterations", Table::Int(result.degraded_iterations)});
      table.AddRow({"probe transitions", Table::Int(result.probe_transitions)});
      table.AddRow({"wasted recompute tokens", Table::Int(result.WastedRecomputeTokens())});
      table.AddRow({"hedges (issued/won)", Table::Int(result.hedges_issued) + "/" +
                                               Table::Int(result.hedges_won)});
      table.AddRow({"migrations", Table::Int(result.migrations)});
      table.AddRow({"drain failovers", Table::Int(result.drain_failovers)});
      table.AddRow({"migrated KV bytes", Table::Int(result.migrated_kv_bytes)});
    }
    if (overload_run) {
      table.AddRow({"shed (admission/queue)", Table::Int(result.num_shed_admission) + "/" +
                                                  Table::Int(result.num_shed_queue)});
      table.AddRow({"browned out", Table::Int(result.num_browned_out)});
      table.AddRow({"overload transitions", Table::Int(result.overload_transitions)});
      table.AddRow({"retries denied", Table::Int(result.num_retries_denied)});
      table.AddRow({"hedges suppressed", Table::Int(result.num_hedges_suppressed)});
      table.AddRow({"backpressure skips", Table::Int(result.num_backpressure_skips)});
    }
    if (autoscale_run) {
      table.AddRow({"scale events (out/in)", Table::Int(result.autoscale_out) + "/" +
                                                 Table::Int(result.autoscale_in)});
      table.AddRow({"peak provisioned replicas", Table::Int(result.peak_provisioned_replicas)});
      table.AddRow({"replica-seconds provisioned",
                    Table::Num(result.replica_seconds_provisioned, 1)});
      table.AddRow({"cost proxy (GPU-s)", Table::Num(result.autoscale_cost_gpu_s, 1)});
    }
    if (cascade_run) {
      table.AddRow({"domain faults (partitions)", Table::Int(result.num_domain_faults) + " (" +
                                                      Table::Int(result.num_partitions) + ")"});
      table.AddRow({"partitioned (s)", Table::Num(result.partitioned_s, 2)});
      table.AddRow(
          {"partition redispatch/reconciled", Table::Int(result.partition_redispatches) + "/" +
                                                  Table::Int(result.partition_reconciled)});
      table.AddRow({"timeout retries", Table::Int(result.timeout_retries)});
      table.AddRow({"cascade sheds", Table::Int(result.cascade_sheds)});
      table.AddRow({"cascade engaged (s)", Table::Num(result.cascade_engaged_s, 2)});
      table.AddRow({"slow-start admits", Table::Int(result.slow_start_admits)});
    }
  }
  table.Print();

  if (!telemetry_dir.empty()) {
    std::string prefix = args.GetString("telemetry-prefix", "run");
    Status exported = ExportTelemetry(result, telemetry_dir, prefix);
    if (!exported.ok()) {
      std::cerr << exported.ToString() << "\n";
      return 1;
    }
    std::cout << "Telemetry written to " << telemetry_dir << "/" << prefix << "_*.csv\n";
  }
  if (!trace_out.empty()) {
    Status written = tracer.WriteChromeTraceFile(trace_out);
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "Chrome trace written to " << trace_out << " (" << tracer.size()
              << " events)\n";
  }
  if (!spans_out.empty()) {
    Status written = tracer.WriteSpanCsvFile(spans_out);
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "Request spans written to " << spans_out << "\n";
  }
  if (!timeseries_out.empty()) {
    Status written = registry.WriteTimeSeriesFile(timeseries_out);
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "Time series written to " << timeseries_out << " (" << registry.NumWindows()
              << " windows)\n";
  }
  if (!prom_out.empty()) {
    Status written = registry.WritePrometheusFile(prom_out);
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "Prometheus exposition written to " << prom_out << "\n";
  }
  if (slo_ptr != nullptr) {
    std::cout << slo_monitor.RenderComplianceReport();
    std::cout << "SLO burn alerts: " << slo_monitor.alerts().size() << "\n";
    if (!slo_out.empty()) {
      Status written = slo_monitor.WriteAlertsCsv(slo_out);
      if (!written.ok()) {
        std::cerr << written.ToString() << "\n";
        return 1;
      }
      std::cout << "SLO alert log written to " << slo_out << "\n";
    }
  }
  if (flight != nullptr) {
    if (flight->triggers() > 0) {
      std::cout << "Flight recorder triggered (" << flight->trigger_reason() << "): dump at "
                << flight_out << "\n";
      if (!flight->dump_status().ok()) {
        std::cerr << flight->dump_status().ToString() << "\n";
        return 1;
      }
    } else {
      // Never triggered: dump the final ring anyway so the artifact always
      // exists for post-hoc inspection.
      Status written = flight->WriteChromeTraceFile(flight_out);
      if (!written.ok()) {
        std::cerr << written.ToString() << "\n";
        return 1;
      }
      std::cout << "Flight recorder never triggered; final ring written to " << flight_out
                << " (" << flight->size() << " events)\n";
    }
  }

  for (const std::string& key : args.UnconsumedKeys()) {
    std::cerr << "warning: unknown flag --" << key << " ignored\n";
  }
  return 0;
}

}  // namespace
}  // namespace sarathi

int main(int argc, char** argv) { return sarathi::RunMain(argc, argv); }
