// Steady-state allocation test for the simulation hot loop: once a run is
// past its setup phase (buffers reserved, cost-model caches warm), decode
// iterations must not touch the heap. Verified with a global counting
// allocator: two runs that differ only in how many steady-state decode
// iterations they execute must perform the SAME number of allocations — any
// per-iteration or per-token allocation would make the longer run allocate
// more.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "src/core/serving_system.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/slo_monitor.h"
#include "src/simulator/replica_simulator.h"
#include "src/workload/trace.h"

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace sarathi {
namespace {

SimulatorOptions BaseOptions(const Deployment& deployment, int64_t token_budget) {
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = SarathiConfig(token_budget);
  return options;
}

// Allocations performed by simulating `trace` with a pre-warmed shared cost
// model. The simulator itself is constructed inside the counted region: its
// setup allocations are identical across traces with the same request count.
// `steady`, when given, receives the run's steady_decode_iterations.
int64_t AllocationsForRun(const SimulatorOptions& options, const Trace& trace,
                          int64_t* steady = nullptr) {
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  int64_t steady_iterations = ReplicaSimulator(options).Run(trace).steady_decode_iterations;
  int64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  if (steady != nullptr) {
    *steady = steady_iterations;
  }
  return allocations;
}

TEST(AllocationTest, SteadyStateDecodeIterationsAreAllocationFree) {
  Deployment deployment = MistralOnA100();
  SimulatorOptions options = BaseOptions(deployment, 512);
  // One shared, pre-warmed cost model: the measured runs then hit the memo
  // caches instead of inserting fresh entries.
  auto model = std::make_shared<IterationCostModel>(deployment.model, deployment.cluster,
                                                    deployment.parallel);
  options.cost_model = model;

  // Same arrival pattern and prompt work; only the number of steady-state
  // decode iterations differs (4 x 32 vs 4 x 160 output tokens).
  Trace short_trace = UniformTrace(4, 512, 32, 0.0);
  Trace long_trace = UniformTrace(4, 512, 160, 0.0);

  // Warm-up pass: reserves nothing persistent outside the model's caches but
  // populates every cost-model entry both measured runs will probe.
  ReplicaSimulator(options).Run(long_trace);
  ReplicaSimulator(options).Run(short_trace);

  int64_t short_steady = 0;
  int64_t long_steady = 0;
  int64_t short_allocs = AllocationsForRun(options, short_trace, &short_steady);
  int64_t long_allocs = AllocationsForRun(options, long_trace, &long_steady);

  // 128 extra decode iterations per request must not cost a single
  // allocation. (token_times_s is reserved per request up front, batches and
  // telemetry buffers are recycled, and the cost model is memoized.)
  EXPECT_EQ(short_allocs, long_allocs)
      << "the longer run allocated " << (long_allocs - short_allocs)
      << " more times; some per-iteration path still touches the heap";
  // Most of those iterations go through the steady-decode run-ahead.
  EXPECT_GT(short_steady, 0);
  EXPECT_GT(long_steady, short_steady);
}

TEST(AllocationTest, FlightRecorderAndSloMonitorStayAllocationFree) {
  // The flight recorder is "always on" precisely because its record path is a
  // struct write into a preallocated ring; the SLO monitor's record path is a
  // bucket increment in a preallocated window ring. With both attached, extra
  // steady-state decode iterations must still cost zero allocations.
  Deployment deployment = MistralOnA100();
  SimulatorOptions options = BaseOptions(deployment, 512);
  auto model = std::make_shared<IterationCostModel>(deployment.model, deployment.cluster,
                                                    deployment.parallel);
  options.cost_model = model;

  Trace short_trace = UniformTrace(4, 512, 32, 0.0);
  Trace long_trace = UniformTrace(4, 512, 160, 0.0);
  ReplicaSimulator(options).Run(long_trace);
  ReplicaSimulator(options).Run(short_trace);

  // Recorder and monitor are built inside the counted region: their setup
  // allocations are identical across the two traces, so any difference comes
  // from per-iteration or per-token recording.
  auto allocations_for = [&](const Trace& trace, int64_t* steady) {
    int64_t before = g_allocations.load(std::memory_order_relaxed);
    FlightRecorder::Options flight_options;
    flight_options.capacity = 512;
    FlightRecorder recorder(flight_options);
    SloMonitor monitor;
    SloPolicy policy;
    policy.name = "tbt";
    policy.signal = SloSignal::kTbt;
    // Unmissable threshold: nothing alerts, and alert emission is the one
    // monitor path allowed to allocate.
    policy.threshold_s = 10.0;
    monitor.AddPolicy(policy);
    SimulatorOptions observed = options;
    observed.flight = &recorder;
    observed.slo = &monitor;
    *steady = ReplicaSimulator(observed).Run(trace).steady_decode_iterations;
    EXPECT_GT(recorder.total_recorded(), 0);
    EXPECT_TRUE(monitor.alerts().empty());
    return g_allocations.load(std::memory_order_relaxed) - before;
  };

  int64_t short_steady = 0;
  int64_t long_steady = 0;
  int64_t short_allocs = allocations_for(short_trace, &short_steady);
  int64_t long_allocs = allocations_for(long_trace, &long_steady);
  EXPECT_EQ(short_allocs, long_allocs)
      << "with the flight recorder and SLO monitor attached the longer run "
      << "allocated " << (long_allocs - short_allocs) << " more times";
  // The attached recorder and monitor do not stand the run-ahead down.
  EXPECT_GT(short_steady, 0);
  EXPECT_GT(long_steady, short_steady);
}

TEST(AllocationTest, ReuseBuffersOffAllocatesPerIteration) {
  // Sanity check that the counter actually sees per-iteration allocations:
  // with buffer reuse disabled the longer run must allocate strictly more.
  Deployment deployment = MistralOnA100();
  SimulatorOptions options = BaseOptions(deployment, 512);
  options.reuse_buffers = false;

  Trace short_trace = UniformTrace(4, 512, 32, 0.0);
  Trace long_trace = UniformTrace(4, 512, 160, 0.0);
  ReplicaSimulator(options).Run(long_trace);

  int64_t short_allocs = AllocationsForRun(options, short_trace);
  int64_t long_allocs = AllocationsForRun(options, long_trace);
  EXPECT_GT(long_allocs, short_allocs);
}

}  // namespace
}  // namespace sarathi
