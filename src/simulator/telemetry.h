// Telemetry export: machine-readable dumps of simulation results.
//
// The paper's implementation "extend[s] the base vLLM codebase to support
// ... an extensive telemetry system" (§4.4). This module is that system's
// analog: per-iteration and per-request logs plus a one-struct aggregate,
// serialized as CSV so results plot with any standard tooling.

#ifndef SRC_SIMULATOR_TELEMETRY_H_
#define SRC_SIMULATOR_TELEMETRY_H_

#include <ostream>
#include <string>

#include "src/common/status.h"
#include "src/obs/slo_monitor.h"
#include "src/simulator/metrics.h"

namespace sarathi {

// Every writer formats numbers as a default-formatted std::ostream prints
// them (doubles as printf "%.6g"), whatever flags `out` carries, and hands
// `out` its bytes in large chunks.

// RFC 4180 CSV field escaping: fields containing commas, quotes, or newlines
// are double-quoted with embedded quotes doubled; everything else passes
// through unchanged. All telemetry writers share this.
std::string CsvEscape(const std::string& value);

// One line per scheduled iteration (requires the run to have been executed
// with SimulatorOptions::record_iterations).
// Columns: iter,start_s,stage_time_s,exit_s,total_tokens,num_decodes,
//          prefill_tokens,description
void WriteIterationLogCsv(const SimResult& result, std::ostream& out);

// One line per request.
// Columns: id,arrival_s,scheduling_delay_s,ttft_s,completion_s,latency_s,
//          num_tokens,p99_tbt_s,max_tbt_s,preemptions,deadline_s,failed_s,
//          failure,retries,wasted_tokens,hedges,migrations,
//          cached_prefill_tokens
void WriteRequestMetricsCsv(const SimResult& result, std::ostream& out);

// One line per TBT sample (request id, token index, gap): the raw series
// behind Fig. 1a-style stall timelines.
void WriteTbtSamplesCsv(const SimResult& result, std::ostream& out);

// Key/value aggregate block (scheduler, makespan, p99 TBT, MFU, bubbles...).
void WriteAggregateCsv(const SimResult& result, std::ostream& out);

// One line per correlated failure domain (cluster runs with failure domains
// configured; header-only otherwise).
// Columns: domain,num_replicas,crashes,partitions,down_s,partitioned_s
void WriteDomainStatusCsv(const SimResult& result, std::ostream& out);

// Writes all four sections to files under `directory` with the given prefix:
//   <prefix>_iterations.csv, <prefix>_requests.csv, <prefix>_tbt.csv,
//   <prefix>_aggregate.csv
// plus <prefix>_domains.csv when the result carries per-domain status rows
// (cluster runs with correlated failure domains configured).
// Creates `directory` (and any missing ancestors) first; returns a non-OK
// Status if creation or any write fails.
Status ExportTelemetry(const SimResult& result, const std::string& directory,
                       const std::string& prefix);

// Feeds a finished run's client-visible timeline into an SLO monitor in
// global time order: a TTFT sample at each request's first token, a TBT
// sample per token gap, and a good/bad outcome at completion or failure.
// Cluster runs use this instead of live per-replica feeding — retry rounds
// re-simulate replicas from scratch, so only the merged result reflects what
// the client experienced. No-op when `slo` is null or has no policies.
void ReplaySloFromResult(const SimResult& result, SloMonitor* slo);

}  // namespace sarathi

#endif  // SRC_SIMULATOR_TELEMETRY_H_
