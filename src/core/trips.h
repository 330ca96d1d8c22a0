// Umbrella header: include this to get the whole TRIPS public API.
//
// TRIPS translates raw indoor positioning data into visual mobility
// semantics (Li, Lu, Shi, Chen, Chen, Shou — PVLDB 11(12), 2018).
//
// Component map:
//   Serving       — core::Engine (immutable model: DSM + topology + trained
//                   event identifier + baseline mobility knowledge, built
//                   once via Engine::Builder, shared across threads) and
//                   core::Service (owns an Engine + worker pool, hands out
//                   core::BatchSession / core::StreamSession per client).
//                   cluster::Cluster scales this to many venues in one
//                   process: per-venue shards (engine + stream session +
//                   trip store) behind a single venue-id-routed ingest
//                   front door, sharing one worker pool, with cross-venue
//                   device history and merged city-wide analytics
//   Configurator  — config::DataSelector, config::SpaceModeler,
//                   config::EventEditor
//   Translator    — core::Engine, the three-layer algorithm core
//                   (cleaning::RawDataCleaner, annotation::Annotator,
//                   complement::Complementor). The hot path is columnar:
//                   positioning::RecordBlock (SoA columns + validity bitmap)
//                   flows from the stream buffers through cleaning (reusable
//                   per-worker CleanerScratch, SIMD mask/sweep kernels,
//                   batched snapping via Dsm::SnapIfOutsideBatch, parallel
//                   passes on long sequences) and annotation without AoS
//                   rematerialization. Blocks are the only record layout
//                   the cleaning and annotation layers accept; AoS
//                   sequences are converted once, at the Engine's edges
//   Store         — store::TripStore, the persistent, indexed semantic-
//                   trajectory store between translation and analytics:
//                   append-only binary segments (store/segment_codec.h:
//                   footer-indexed, mmap'd zero-copy with lazy per-segment
//                   materialization and deferred index hydration) laid out
//                   in time-partitioned directories (part-<bucket>/) that
//                   window scans prune wholesale, background compaction of
//                   adjacent small segments on the shared pool behind a
//                   MANIFEST.json checkpoint (crash recovery: torn segments
//                   dropped, strays cleaned, scan fallback), device/region/
//                   time indexes, live ingestion via a StreamSession sink,
//                   queries (DeviceHistory, RegionVisitors, FlowBetween,
//                   time-range scans) and segment-parallel analytics
//   Observability — obs::MetricsRegistry, the unified metrics & stage-
//                   tracing subsystem: lock-free thread-sharded counters/
//                   gauges/log-bucketed latency histograms recorded by every
//                   layer above (pool queues, translate stages, stream
//                   ingest-to-result, store append/query, routing & spatial
//                   caches, cluster rollups), exported as one deterministic
//                   /statsz JSON snapshot (obs/statsz.h) via
//                   Service::DumpStatsz / Cluster::DumpStatsz
//   Viewer        — viewer::Timeline, viewer::MapRenderer, viewer::RenderHtml,
//                   plus store-backed views (viewer/store_view.h)
//   Load & SLO    — loadgen::EventList (discrete-event clock + heap of
//                   self-rescheduling sources) driving loadgen::RunScenario:
//                   Poisson/diurnal/heavy-tail session arrivals replayed
//                   open-loop into a Service or Cluster ingest target, exact
//                   ingest-to-result latency quantiles, queue-depth/drop
//                   sampling from the metrics registry, and SLO gating with
//                   JSON reports (loadgen/harness.h, loadgen/scenario.h,
//                   loadgen_slo CLI)
//   Substrates    — dsm::Dsm (+ routing, JSON, sample spaces),
//                   positioning::* (records, CSV, error model),
//                   mobility::MobilityGenerator (ground-truth data).
//                   Indoor routing runs on a contracted (CH-lite)
//                   portal-to-portal shortcut graph with memoized Dijkstra
//                   trees; the flat clique graph stays as the bit-identical
//                   parity reference (dsm/routing.h). Point queries run on
//                   the grid spatial index, including the cell-sorted
//                   SnapIfOutsideBatch the cleaner's pass 4 uses
//
// Persist + query quickstart:
//
//     auto stored = store::TripStore::Open({.directory = "mall_store"});
//     auto stream = service.NewStreamSession();
//     stream->SetSink(stored.ValueOrDie()->MakeSink());  // live ingestion
//     ... feed records ...; stream->FlushAll();
//     stored.ValueOrDie()->Flush();                      // seal + persist
//     auto visitors = stored.ValueOrDie()->RegionVisitors(region, t0, t1);
#pragma once

#include "annotation/annotator.h"
#include "annotation/event_classifier.h"
#include "cleaning/cleaner.h"
#include "cluster/cluster.h"
#include "complement/complementor.h"
#include "complement/knowledge.h"
#include "config/data_selector.h"
#include "config/event_editor.h"
#include "config/space_modeler.h"
#include "core/analytics.h"
#include "core/engine.h"
#include "core/result_io.h"
#include "core/semantics.h"
#include "core/service.h"
#include "core/session.h"
#include "dsm/dsm.h"
#include "dsm/dsm_json.h"
#include "dsm/routing.h"
#include "dsm/sample_spaces.h"
#include "dsm/validation.h"
#include "loadgen/event_list.h"
#include "loadgen/harness.h"
#include "loadgen/scenario.h"
#include "mobility/generator.h"
#include "obs/metrics.h"
#include "obs/statsz.h"
#include "positioning/csv_io.h"
#include "positioning/error_model.h"
#include "positioning/record.h"
#include "positioning/record_block.h"
#include "store/segment_codec.h"
#include "store/trip_store.h"
#include "viewer/ascii_renderer.h"
#include "viewer/heatmap.h"
#include "viewer/html_export.h"
#include "viewer/map_renderer.h"
#include "viewer/store_view.h"
#include "viewer/timeline.h"
