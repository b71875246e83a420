#include "src/simulator/telemetry.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <filesystem>
#include <fstream>
#include <string_view>

namespace sarathi {
namespace {

void AppendCsvEscaped(std::string_view value, std::string* out) {
  if (value.find_first_of(",\"\n\r") == std::string_view::npos) {
    out->append(value);
    return;
  }
  *out += '"';
  for (char c : value) {
    if (c == '"') {
      *out += '"';
    }
    *out += c;
  }
  *out += '"';
}

// Buffered CSV appender: builds rows in a string and hands them to the stream
// in large chunks. Numbers go through std::to_chars. A double is written in
// the general format at precision 6, which the standard defines as printf's
// "%.6g" in the C locale: exactly what a default-formatted std::ostream
// prints for it. So the bytes equal those of `out << value`, at a fraction of
// the cost. The stream's own format flags are not consulted.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) { buffer_.reserve(kChunkBytes + 256); }
  ~CsvWriter() { Flush(); }
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  CsvWriter& operator<<(double value) {
    char digits[32];
    auto [end, ec] =
        std::to_chars(digits, digits + sizeof(digits), value, std::chars_format::general, 6);
    return Append(std::string_view(digits, static_cast<size_t>(end - digits)));
  }
  template <std::integral Int>
    requires(!std::same_as<Int, char> && !std::same_as<Int, bool>)
  CsvWriter& operator<<(Int value) {
    char digits[24];
    auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), value);
    return Append(std::string_view(digits, static_cast<size_t>(end - digits)));
  }
  CsvWriter& operator<<(char c) {
    buffer_ += c;
    return MaybeFlush();
  }
  CsvWriter& operator<<(std::string_view text) { return Append(text); }
  // An RFC 4180 field (see CsvEscape).
  CsvWriter& Escaped(std::string_view value) {
    AppendCsvEscaped(value, &buffer_);
    return MaybeFlush();
  }

 private:
  static constexpr size_t kChunkBytes = 64 * 1024;

  CsvWriter& Append(std::string_view text) {
    buffer_.append(text);
    return MaybeFlush();
  }
  CsvWriter& MaybeFlush() {
    if (buffer_.size() >= kChunkBytes) {
      Flush();
    }
    return *this;
  }
  void Flush() {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

  std::ostream& out_;
  std::string buffer_;
};

}  // namespace

std::string CsvEscape(const std::string& value) {
  std::string escaped;
  AppendCsvEscaped(value, &escaped);
  return escaped;
}

void WriteIterationLogCsv(const SimResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv << "iter,start_s,stage_time_s,exit_s,total_tokens,num_decodes,prefill_tokens,"
         "description\n";
  for (size_t i = 0; i < result.iterations.size(); ++i) {
    const IterationRecord& it = result.iterations[i];
    csv << i << ',' << it.start_s << ',' << it.stage_time_s << ',' << it.exit_s << ','
        << it.total_tokens << ',' << it.num_decodes << ',' << it.prefill_tokens << ',';
    csv.Escaped(it.description) << '\n';
  }
}

void WriteRequestMetricsCsv(const SimResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv << "id,arrival_s,scheduling_delay_s,ttft_s,completion_s,latency_s,num_tokens,"
         "p99_tbt_s,max_tbt_s,preemptions,deadline_s,failed_s,failure,retries,"
         "wasted_tokens,hedges,migrations,cached_prefill_tokens\n";
  std::vector<double> tbt;  // One request's gaps, reused across requests.
  for (const RequestMetrics& r : result.requests) {
    tbt.clear();
    r.AppendTbtSamples(&tbt);
    double max_tbt = tbt.empty() ? 0.0 : *std::max_element(tbt.begin(), tbt.end());
    double p99 = SelectQuantile(&tbt, 0.99);
    double latency = r.completed() ? r.completion_s - r.arrival_s : -1.0;
    csv << r.id << ',' << r.arrival_s << ',' << r.SchedulingDelay() << ',' << r.Ttft() << ','
        << r.completion_s << ',' << latency << ',' << r.token_times_s.size() << ',' << p99
        << ',' << max_tbt << ',' << r.preemptions << ',' << r.deadline_s << ',' << r.failed_s
        << ',' << FailureKindName(r.failure) << ',' << r.retries << ',' << r.wasted_tokens
        << ',' << r.hedges << ',' << r.migrations << ',' << r.cached_prefill_tokens << '\n';
  }
}

void WriteTbtSamplesCsv(const SimResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv << "request_id,token_index,tbt_s\n";
  for (const RequestMetrics& r : result.requests) {
    const std::vector<double>& t = r.token_times_s;
    for (size_t i = 1; i < t.size(); ++i) {
      csv << r.id << ',' << i << ',' << t[i] - t[i - 1] << '\n';
    }
  }
}

void WriteAggregateCsv(const SimResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv << "metric,value\n";
  csv << "scheduler,";
  csv.Escaped(result.scheduler_name) << '\n';
  csv << "requests," << result.requests.size() << '\n';
  csv << "iterations," << result.num_iterations << '\n';
  csv << "preemptions," << result.num_preemptions << '\n';
  csv << "makespan_s," << result.makespan_s << '\n';
  csv << "median_ttft_s," << result.MedianTtft() << '\n';
  csv << "p99_tbt_s," << result.P99Tbt() << '\n';
  csv << "max_tbt_s," << result.MaxTbt() << '\n';
  csv << "median_scheduling_delay_s," << result.MedianSchedulingDelay() << '\n';
  csv << "output_tokens," << result.total_output_tokens << '\n';
  csv << "prefill_tokens," << result.total_prefill_tokens << '\n';
  csv << "output_tokens_per_s," << result.OutputTokenThroughput() << '\n';
  csv << "mfu," << result.Mfu() << '\n';
  csv << "mbu," << result.Mbu() << '\n';
  csv << "bubble_fraction," << result.BubbleFraction() << '\n';
  csv << "good_requests," << result.CountGood() << '\n';
  csv << "goodput_per_s," << result.Goodput() << '\n';
  csv << "failed_requests," << result.CountFailed() << '\n';
  csv << "timeout_requests," << result.CountFailed(FailureKind::kTimeout) << '\n';
  csv << "crash_failed_requests," << result.CountFailed(FailureKind::kReplicaCrash) << '\n';
  csv << "shed_requests," << result.num_shed << '\n';
  csv << "retries," << result.TotalRetries() << '\n';
  csv << "lost_output_tokens," << result.lost_output_tokens << '\n';
  csv << "outages," << result.num_outages << '\n';
  csv << "downtime_s," << result.downtime_s << '\n';
  csv << "slowdown_episodes," << result.num_slowdown_episodes << '\n';
  csv << "degraded_s," << result.degraded_s << '\n';
  csv << "degraded_iterations," << result.degraded_iterations << '\n';
  csv << "probe_transitions," << result.probe_transitions << '\n';
  csv << "hedges_issued," << result.hedges_issued << '\n';
  csv << "hedges_won," << result.hedges_won << '\n';
  csv << "hedges_cancelled," << result.hedges_cancelled << '\n';
  csv << "migrations," << result.migrations << '\n';
  csv << "migrations_cancelled," << result.migrations_cancelled << '\n';
  csv << "drain_failovers," << result.drain_failovers << '\n';
  csv << "migrated_kv_bytes," << result.migrated_kv_bytes << '\n';
  csv << "wasted_recompute_tokens," << result.WastedRecomputeTokens() << '\n';
  csv << "shed_admission," << result.num_shed_admission << '\n';
  csv << "shed_queue," << result.num_shed_queue << '\n';
  csv << "browned_out," << result.num_browned_out << '\n';
  csv << "overload_transitions," << result.overload_transitions << '\n';
  csv << "retries_denied," << result.num_retries_denied << '\n';
  csv << "hedges_suppressed," << result.num_hedges_suppressed << '\n';
  csv << "backpressure_skips," << result.num_backpressure_skips << '\n';
  csv << "kv_peak_blocks_in_use," << result.peak_kv_blocks << '\n';
  csv << "kv_total_blocks," << result.total_kv_blocks << '\n';
  csv << "kv_peak_utilization," << result.PeakKvUtilization() << '\n';
  csv << "prefix_lookups," << result.prefix_lookups << '\n';
  csv << "prefix_hits," << result.prefix_hits << '\n';
  csv << "prefix_hit_rate,"
      << (result.prefix_lookups > 0
              ? static_cast<double>(result.prefix_hits) /
                    static_cast<double>(result.prefix_lookups)
              : 0.0)
      << '\n';
  csv << "cached_prefill_tokens," << result.cached_prefill_tokens << '\n';
  csv << "prefix_evictions," << result.prefix_evictions << '\n';
  csv << "kv_peak_cached_blocks," << result.peak_cached_blocks << '\n';
  csv << "domain_faults," << result.num_domain_faults << '\n';
  csv << "partitions," << result.num_partitions << '\n';
  csv << "partitioned_s," << result.partitioned_s << '\n';
  csv << "partition_redispatches," << result.partition_redispatches << '\n';
  csv << "partition_reconciled," << result.partition_reconciled << '\n';
  csv << "cascade_sheds," << result.cascade_sheds << '\n';
  csv << "cascade_engaged_s," << result.cascade_engaged_s << '\n';
  csv << "slow_start_admits," << result.slow_start_admits << '\n';
  csv << "timeout_retries," << result.timeout_retries << '\n';
  // Autoscale rows appear only for autoscaled runs, mirroring the
  // domains.csv pattern: runs without the feature keep producing exactly the
  // bytes they always did.
  if (result.peak_provisioned_replicas > 0) {
    csv << "autoscale_events," << result.autoscale_events << '\n';
    csv << "autoscale_out," << result.autoscale_out << '\n';
    csv << "autoscale_in," << result.autoscale_in << '\n';
    csv << "peak_provisioned_replicas," << result.peak_provisioned_replicas << '\n';
    csv << "replica_seconds_provisioned," << result.replica_seconds_provisioned << '\n';
    csv << "autoscale_cost_gpu_s," << result.autoscale_cost_gpu_s << '\n';
  }
}

void WriteDomainStatusCsv(const SimResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv << "domain,num_replicas,crashes,partitions,down_s,partitioned_s\n";
  for (const DomainStatus& d : result.domains) {
    csv << d.domain << ',' << d.num_replicas << ',' << d.crashes << ',' << d.partitions
        << ',' << d.down_s << ',' << d.partitioned_s << '\n';
  }
}

void ReplaySloFromResult(const SimResult& result, SloMonitor* slo) {
  if (slo == nullptr || !slo->enabled()) {
    return;
  }
  struct Event {
    double t;
    SloSignal signal;
    QosClass qos;
    double value;  // latency sample for kTtft/kTbt; unused for outcomes
    bool is_outcome;
    bool good;
  };
  std::vector<Event> events;
  for (const RequestMetrics& r : result.requests) {
    if (!r.token_times_s.empty()) {
      double first = r.token_times_s.front();
      events.push_back({first, SloSignal::kTtft, r.qos, first - r.arrival_s, false, false});
      for (size_t i = 1; i < r.token_times_s.size(); ++i) {
        events.push_back({r.token_times_s[i], SloSignal::kTbt, r.qos,
                          r.token_times_s[i] - r.token_times_s[i - 1], false, false});
      }
    }
    if (r.completed()) {
      events.push_back({r.completion_s, SloSignal::kGoodput, r.qos, 0.0, true, r.good()});
    } else if (r.failed()) {
      events.push_back({r.failed_s, SloSignal::kGoodput, r.qos, 0.0, true, false});
    }
  }
  // The monitor's clock only moves forward; a time-sorted replay lands every
  // sample in its own burn-rate bucket instead of the tail one.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  for (const Event& e : events) {
    if (e.is_outcome) {
      slo->RecordOutcome(e.qos, e.good, e.t);
    } else {
      slo->RecordLatency(e.signal, e.qos, e.value, e.t);
    }
  }
  slo->AdvanceTo(result.makespan_s);
}

Status ExportTelemetry(const SimResult& result, const std::string& directory,
                       const std::string& prefix) {
  struct Section {
    const char* suffix;
    void (*writer)(const SimResult&, std::ostream&);
  };
  const Section sections[] = {
      {"iterations", &WriteIterationLogCsv},
      {"requests", &WriteRequestMetricsCsv},
      {"tbt", &WriteTbtSamplesCsv},
      {"aggregate", &WriteAggregateCsv},
  };
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return InternalError("cannot create directory " + directory + ": " + ec.message());
  }
  for (const Section& section : sections) {
    std::string path = directory + "/" + prefix + "_" + section.suffix + ".csv";
    std::ofstream out(path);
    if (!out) {
      return InternalError("cannot open " + path + " for writing");
    }
    section.writer(result, out);
    if (!out) {
      return InternalError("write failed for " + path);
    }
  }
  // Per-domain status rows exist only for runs with failure domains
  // configured; runs without them keep producing exactly the four files
  // they always did.
  if (!result.domains.empty()) {
    std::string path = directory + "/" + prefix + "_domains.csv";
    std::ofstream out(path);
    if (!out) {
      return InternalError("cannot open " + path + " for writing");
    }
    WriteDomainStatusCsv(result, out);
    if (!out) {
      return InternalError("write failed for " + path);
    }
  }
  return Status::Ok();
}

}  // namespace sarathi
