#include "workloads.h"

namespace trips::perf {

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "batch_mall") return MakeBatchMall();
  if (name == "stream_mall") return MakeStreamMall();
  if (name == "cluster_city") return MakeClusterCity();
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"cleaning.ns_per_record", "ns"},
      {"cleaning.scan_ns_per_record", "ns"},
      {"cleaning.interpolate_ns_per_record", "ns"},
      {"cleaning.smooth_ns_per_record", "ns"},
      {"cleaning.snap_ns_per_record", "ns"},
      {"cleaning.share", "ratio"},
      {"cleaning.snapped_per_record", "ratio"},
      {"annotation.split_ns_per_record", "ns"},
      {"annotation.split_share", "ratio"},
      {"annotation.match_classify_ns_per_record", "ns"},
      {"annotation.snippets_per_sequence", "count"},
      {"annotation.allocs_per_record", "count"},
      {"complement.knowledge_build_ms_per_request", "ms"},
      {"complement.us_per_gap", "us"},
      {"complement.share", "ratio"},
      {"complement.gaps_per_sequence", "count"},
      {"complement.knowledge_edges", "count"},
      {"complement.gap_fill_ratio", "ratio"},
      {"batch.session_overhead_share", "ratio"},
      {"batch.request_p90_ms", "ms"},
      {"stream.result_p90_ms", "ms"},
      {"stream.result_p99_ms", "ms"},
      {"stream.ingest_ns_per_record", "ns"},
      {"stream.poll_ms_p50", "ms"},
      {"stream.poll_ms_p99", "ms"},
      {"stream.buffers_per_poll", "count"},
      {"stream.records_per_flush", "count"},
      {"stream.buffered_records_max", "count"},
      {"stream.dropped_small_buffers", "count"},
      {"cluster.result_p90_ms", "ms"},
      {"cluster.result_p99_ms", "ms"},
      {"cluster.poll_ms_p50", "ms"},
      {"cluster.poll_ms_p99", "ms"},
      {"cluster.ingest_batch_ns_per_record", "ns"},
      {"cluster.hot_venue_share", "ratio"},
      {"cluster.query_p50_ms", "ms"},
      {"cluster.query_p99_ms", "ms"},
      {"store.append_us_p50", "us"},
      {"store.append_us_p99", "us"},
      {"store.persist_ms", "ms"},
      {"store.persisted_bytes_per_sequence", "bytes"},
      {"store.compactions", "count"},
      {"store.manifest_writes", "count"},
      {"store.query_us_p50.device_history", "us"},
      {"store.query_us_p99.device_history", "us"},
      {"store.query_us_p50.region_visitors", "us"},
      {"store.query_us_p99.region_visitors", "us"},
      {"store.query_us_p50.sequences_in_range", "us"},
      {"store.query_us_p99.sequences_in_range", "us"},
      {"store.query_us_p50.analytics", "us"},
      {"store.query_us_p99.analytics", "us"},
      {"store.materializations_per_query", "count"},
      {"pool.task_wait_us_p50", "us"},
      {"pool.task_wait_us_p99", "us"},
      {"pool.busy_share", "ratio"},
      {"pool.queue_depth_max", "count"},
      {"routing.cache_hit_ratio", "ratio"},
      {"spatial.probes_per_record", "count"},
      {"harness.generator_lag_p99_ms", "ms"},
      {"harness.trace_overhead_pct", "%"},
      {"harness.lost_record_ratio", "ratio"},
      {"harness.failed_call_ratio", "ratio"},
      {"harness.host_ref_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace trips::perf
