#include "ps/config.h"

#include <thread>

#include "util/logging.h"

namespace lapse {
namespace ps {

const char* ArchitectureName(Architecture a) {
  switch (a) {
    case Architecture::kLapse:
      return "Lapse";
    case Architecture::kClassicFastLocal:
      return "ClassicFastLocal";
    case Architecture::kClassic:
      return "Classic";
  }
  return "?";
}

const char* LocationStrategyName(LocationStrategy s) {
  switch (s) {
    case LocationStrategy::kStaticPartition:
      return "StaticPartition";
    case LocationStrategy::kHomeNode:
      return "HomeNode";
    case LocationStrategy::kBroadcastOps:
      return "BroadcastOps";
    case LocationStrategy::kBroadcastRelocations:
      return "BroadcastRelocations";
  }
  return "?";
}

const char* StorageKindName(StorageKind k) {
  switch (k) {
    case StorageKind::kDense:
      return "Dense";
    case StorageKind::kSparse:
      return "Sparse";
  }
  return "?";
}

void Config::Validate() const {
  LAPSE_CHECK_GT(num_nodes, 0)
      << "Config: num_nodes must be positive (a deployment needs at least "
         "one node)";
  LAPSE_CHECK_GT(workers_per_node, 0)
      << "Config: workers_per_node must be positive";
  if (value_lengths.empty()) {
    LAPSE_CHECK_GT(num_keys, 0u)
        << "Config: num_keys is 0 and value_lengths is empty -- the key "
           "space must be non-empty";
    LAPSE_CHECK_GT(uniform_value_length, 0u)
        << "Config: uniform_value_length must be positive";
  } else {
    for (size_t i = 0; i < value_lengths.size(); ++i) {
      LAPSE_CHECK_GT(value_lengths[i], 0u)
          << "Config: value_lengths[" << i << "] must be positive";
    }
  }
  LAPSE_CHECK_GT(server_threads, 0)
      << "Config: server_threads must be positive (each node needs at least "
         "one server drain thread)";
  LAPSE_CHECK_LE(server_threads, 64)
      << "Config: server_threads must be <= 64 (shard indices are stored as "
         "bytes in the key layout's shard table)";
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && static_cast<unsigned>(server_threads) > hw) {
    LAPSE_LOG(Warning) << "Config: server_threads (" << server_threads
                       << ") exceeds hardware threads (" << hw
                       << "); drain threads will contend for cores";
  }

  if (adaptive.enabled) {
    LAPSE_CHECK(arch == Architecture::kLapse)
        << "Config: the adaptive placement engine needs dynamic parameter "
           "allocation (Architecture::kLapse); got "
        << ArchitectureName(arch);
    LAPSE_CHECK(strategy == LocationStrategy::kHomeNode)
        << "Config: the adaptive placement engine supports only the "
           "home-node location strategy (relocation + eviction); got "
        << LocationStrategyName(strategy);
    LAPSE_CHECK_GE(adaptive.sample_period, 1u)
        << "Config: adaptive.sample_period must be >= 1 (record every Nth "
           "operation)";
    LAPSE_CHECK_GT(adaptive.tick_micros, 0)
        << "Config: adaptive.tick_micros must be positive";
    LAPSE_CHECK(adaptive.decay > 0.0 && adaptive.decay < 1.0)
        << "Config: adaptive.decay must be in (0, 1); got "
        << adaptive.decay;
    LAPSE_CHECK_GE(adaptive.cold_threshold, 0.0)
        << "Config: adaptive.cold_threshold must be >= 0";
    LAPSE_CHECK_GT(adaptive.hot_threshold, adaptive.cold_threshold)
        << "Config: adaptive.hot_threshold must exceed cold_threshold "
           "(the gap is the flap-prevention band)";
    LAPSE_CHECK_GE(adaptive.cold_ticks_to_evict, 1)
        << "Config: adaptive.cold_ticks_to_evict must be >= 1";
    LAPSE_CHECK_LE(adaptive.cold_ticks_to_evict, 65535)
        << "Config: adaptive.cold_ticks_to_evict must fit the policy's "
           "16-bit hysteresis counter";
    LAPSE_CHECK_GE(adaptive.churn_limit, 1)
        << "Config: adaptive.churn_limit must be >= 1";
    LAPSE_CHECK_LE(adaptive.churn_limit, 255)
        << "Config: adaptive.churn_limit must fit the policy's 8-bit churn "
           "counter";
    LAPSE_CHECK_GE(adaptive.churn_forget_ticks, 1)
        << "Config: adaptive.churn_forget_ticks must be >= 1";
    LAPSE_CHECK(adaptive.replicate_read_fraction >= 0.0 &&
                adaptive.replicate_read_fraction <= 1.0)
        << "Config: adaptive.replicate_read_fraction must be in [0, 1]";
    LAPSE_CHECK(adaptive.unreplicate_read_fraction >= 0.0 &&
                adaptive.unreplicate_read_fraction <= 1.0)
        << "Config: adaptive.unreplicate_read_fraction must be in [0, 1]";
    LAPSE_CHECK_LE(adaptive.unreplicate_read_fraction,
                   adaptive.replicate_read_fraction)
        << "Config: adaptive.unreplicate_read_fraction must not exceed "
           "replicate_read_fraction (the gap is the pin/unpin hysteresis "
           "band; equal values mean no band)";
    LAPSE_CHECK_GE(adaptive.unreplicate_cold_windows, 1)
        << "Config: adaptive.unreplicate_cold_windows must be >= 1";
    LAPSE_CHECK_LE(adaptive.unreplicate_cold_windows, 65535)
        << "Config: adaptive.unreplicate_cold_windows must fit the "
           "policy's 16-bit cold-window counter";
    LAPSE_CHECK_GE(adaptive.max_localizes_per_tick, 1u)
        << "Config: adaptive.max_localizes_per_tick must be >= 1";
    if (adaptive.adaptive_flush) {
      LAPSE_CHECK(replication)
          << "Config: adaptive.adaptive_flush scales the replica flush cap "
             "per key, so it needs replication";
      LAPSE_CHECK_GE(adaptive.flush_folds_floor, 1u)
          << "Config: adaptive.flush_folds_floor must be >= 1 (a zero floor "
             "would disable the count trigger for write-cold keys)";
      LAPSE_CHECK_LE(adaptive.flush_folds_floor, replica_flush_max_folds)
          << "Config: adaptive.flush_folds_floor must not exceed "
             "replica_flush_max_folds (the global cap is the adaptive "
             "range's upper end)";
      LAPSE_CHECK_GT(adaptive.flush_saturation_score, 0.0)
          << "Config: adaptive.flush_saturation_score must be positive (it "
             "is the write score at which a key's cap reaches the global "
             "maximum)";
    }
  }

  if (obs.enabled) {
    LAPSE_CHECK_GE(obs.ring_capacity, 64u)
        << "Config: obs.ring_capacity must be >= 64 (the event rings round "
           "up to a power of two; smaller rings drop most traced ops)";
    LAPSE_CHECK_GT(obs.snapshot_micros, 0)
        << "Config: obs.snapshot_micros must be positive (it is the "
           "collector's drain/snapshot cadence)";
    LAPSE_CHECK_GE(obs.max_trace_records, 1u)
        << "Config: obs.max_trace_records must be >= 1 (0 would discard "
           "every finalized record before export)";
  } else {
    LAPSE_CHECK(obs.metrics_json_path.empty() && obs.trace_path.empty())
        << "Config: obs export paths are set but obs.enabled is false -- "
           "nothing would ever be written to them";
  }

  if (replication) {
    LAPSE_CHECK(arch == Architecture::kLapse)
        << "Config: replication needs dynamic parameter allocation "
           "(Architecture::kLapse); got "
        << ArchitectureName(arch);
    LAPSE_CHECK(strategy == LocationStrategy::kHomeNode)
        << "Config: replication supports only the home-node location "
           "strategy (the home's replica directory drives invalidation); "
           "got "
        << LocationStrategyName(strategy);
    LAPSE_CHECK_GT(replica_staleness_micros, 0)
        << "Config: replica_staleness_micros must be positive (it bounds "
           "how stale a replica-served read may be)";
    LAPSE_CHECK_GT(replica_flush_micros, 0)
        << "Config: replica_flush_micros must be positive (it bounds how "
           "long an aggregated write may sit in a local accumulator)";
    LAPSE_CHECK_GE(replica_flush_max_folds, 1u)
        << "Config: replica_flush_max_folds must be >= 1 (0 would never "
           "trigger a count-based flush and overflow nothing into the "
           "age trigger's contract)";
    LAPSE_CHECK_LE(replica_flush_micros, replica_staleness_micros)
        << "Config: replica_flush_micros must not exceed "
           "replica_staleness_micros -- folds held back longer than the "
           "staleness bound would make other holders' replica-served "
           "reads lag the bounded-staleness contract";
  }

  if (coalescing) {
    LAPSE_CHECK_GE(coalesce_max_ops, 1u)
        << "Config: coalesce_max_ops must be >= 1 (0 would never release a "
           "batch on the count trigger)";
    LAPSE_CHECK_LE(coalesce_max_ops, 62u)
        << "Config: coalesce_max_ops must be <= 62 (each batched key entry "
           "packs a referencing-op bitmask plus a flag bit into one int64 "
           "aux word)";
    LAPSE_CHECK_GT(coalesce_delay_micros, 0)
        << "Config: coalesce_delay_micros must be positive (it bounds how "
           "long a queued op may wait before its batch is released)";
    if (replication) {
      LAPSE_CHECK_LE(coalesce_delay_micros, replica_staleness_micros)
          << "Config: coalesce_delay_micros must not exceed "
             "replica_staleness_micros -- a pull held back longer than the "
             "staleness bound would re-install replica copies older than "
             "the bounded-staleness contract implies";
    }
  }
}

void Config::Normalize() {
  if (!value_lengths.empty()) {
    num_keys = value_lengths.size();
  }
  Validate();

  if (arch != Architecture::kLapse) {
    // Static allocation: localize is a no-op; strategy degenerates.
    strategy = LocationStrategy::kStaticPartition;
    location_caches = false;
  }
  if (strategy == LocationStrategy::kStaticPartition ||
      strategy == LocationStrategy::kBroadcastOps ||
      strategy == LocationStrategy::kBroadcastRelocations) {
    // Location caches only make sense for the home-node strategy.
    location_caches = false;
  }
}

}  // namespace ps
}  // namespace lapse
