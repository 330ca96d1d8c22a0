// TripStore — the persistence layer between translation and analytics: an
// append-only, segmented store of translated mobility semantics sequences
// with in-memory indexes and a query surface. The paper's point is that
// downstream analyses consume mobility semantics, not raw records; this is
// where those semantics live once a Service session has produced them.
//
//     auto stored = store::TripStore::Open({.directory = "mall_store"});
//     auto stream = service.NewStreamSession();
//     stream->SetSink(stored.ValueOrDie()->MakeSink());   // live ingestion
//     ... feed records ...
//     stored.ValueOrDie()->Flush();                       // persist + checkpoint
//
//     auto history = stored.ValueOrDie()->DeviceHistory("3a.6f.14");
//     auto lunch = stored.ValueOrDie()->RegionVisitors(adidas, t0, t1);
//     core::MobilityAnalytics a = stored.ValueOrDie()->BuildAnalytics(&dsm);
//
// On-disk layout: sealed segments are mmap-readable blobs named
// "segment-NNNNNN.tseg" inside time-partition directories
// ("part-<bucket>/", bucket = floor(span begin / partition_ms)), with
// "MANIFEST.json" as the atomic checkpoint listing the live segments in
// append order. Open memory-maps every listed segment and reads only its
// footer + index block — device postings, region postings with time fences,
// per-segment spans and the flow matrix are all rebuilt from footers without
// decoding a single triplet column. A segment's body is materialized lazily
// on the first query that touches it, and cached. A directory holding a
// segment in the retired v1 format fails to open.
//
// Background compaction merges runs of small adjacent sealed segments of one
// partition into full segments on the worker pool (inline with zero
// workers). Only adjacent segments merge, so sequence ids, index postings
// and every query result are byte-identical across compactions; the manifest
// is rewritten before the merged inputs are deleted, so a crash at any point
// reopens to a consistent checkpoint.
//
// Thread-safety: all public methods are internally synchronized (appends
// exclusive, queries shared), so one store can be fed from several stream
// sessions while serving queries; lazy materialization and compaction take
// per-segment locks under the shared query lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/analytics.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "store/mmap_file.h"
#include "util/thread_pool.h"
#include "util/time_util.h"

namespace trips::store {

/// Store configuration.
struct StoreOptions {
  /// Segment directory. Empty: memory-only (Flush seals but writes nothing).
  /// Non-empty: created if missing; existing segments are loaded on Open.
  std::string directory;
  /// Sequences per segment before the active segment is sealed.
  size_t segment_max_sequences = 256;
  /// Worker threads for segment-parallel scans, Open-time decoding and
  /// background compaction (0 = everything on the calling thread).
  size_t worker_threads = 0;
  /// Memory-map sealed segments and materialize their bodies lazily on first
  /// touch. false: eager open (read, checksum and decode every segment up
  /// front) — the parity reference for the mmap path. The TRIPS_STORE_NO_MMAP
  /// environment variable (any value but "0") forces false.
  bool mmap = true;
  /// Width of one time-partition directory ("part-<bucket>/"). <= 0: flat
  /// layout, every segment in the directory root, no partition pruning.
  DurationMs partition_ms = kMillisPerDay;
  /// Merge runs of small adjacent sealed segments in the background after
  /// Flush. Query results are identical either way; compaction only reduces
  /// file count and reopen cost.
  bool compaction = true;
  /// Minimum number of adjacent undersized segments before a merge is
  /// worthwhile (clamped to >= 2).
  size_t compaction_min_run = 2;
  /// Optional external pool for scans and compaction (must outlive the
  /// store). Null: the store runs its own pool with `worker_threads`
  /// workers. Lets co-located stores (cluster shards) share one pool instead
  /// of oversubscribing the host.
  util::ThreadPool* shared_pool = nullptr;
  /// Metrics registry the store records into (append/query latency, segment
  /// and byte counts — all under the "store." prefix). Null: no recording.
  /// Stores sharing a registry aggregate into the same metrics.
  std::shared_ptr<obs::MetricsRegistry> metrics = nullptr;
};

/// One triplet of one device matching a RegionVisitors query.
struct RegionVisit {
  std::string device_id;
  core::MobilitySemantic visit;

  bool operator==(const RegionVisit& other) const = default;
};

/// Aggregate store counters.
struct StoreStats {
  size_t sequences = 0;
  size_t triplets = 0;
  size_t segments = 0;
  /// Segments already written to the directory.
  size_t persisted_segments = 0;
  /// Segments whose bodies are decoded in memory (lazily opened segments
  /// count only once touched).
  size_t materialized_segments = 0;
  /// Distinct time-partition buckets with at least one spanned segment.
  size_t partitions = 0;
  /// Bytes held by the region-postings append tail (zero right after a seal
  /// or an explicit index compaction).
  size_t postings_tail_bytes = 0;
  /// Devices with at least one stored sequence.
  size_t devices = 0;
  /// Union span of all stored triplets ([0,0] when empty).
  TimeRange span;
};

/// Append-only, indexed store of mobility semantics sequences.
class TripStore {
 public:
  /// Identifier of one stored sequence (its global append ordinal).
  using SequenceId = uint32_t;

  /// Opens a store: memory-only when `options.directory` is empty, otherwise
  /// loads the directory's manifest (or scans it when the manifest is
  /// missing or torn), maps every live segment and continues appending after
  /// them. Segments that fail validation (torn, corrupt) are dropped and
  /// counted in store.dropped_segments; a segment in the retired v1 format
  /// fails the open with ParseError instead.
  static Result<std::unique_ptr<TripStore>> Open(StoreOptions options = {});

  ~TripStore();
  TripStore(const TripStore&) = delete;
  TripStore& operator=(const TripStore&) = delete;

  // ---- ingestion ------------------------------------------------------------

  /// Appends one sequence. Fails on an empty device id or an invalid triplet
  /// time range; triplets are indexed as given (not re-sorted).
  Result<SequenceId> Append(core::MobilitySemanticsSequence seq);

  /// Appends the final semantics of every result of a batch response.
  Status AppendResponse(const core::TranslationResponse& response);

  /// A StreamSession sink that appends every flushed result's semantics —
  /// the live-ingestion wiring:
  ///     stream->SetSink(store->MakeSink());
  /// The store must outlive the session. Append failures are counted in
  /// Stats-independent dropped_count() rather than surfaced per record.
  core::StreamSession::Sink MakeSink();

  /// Sequences a sink discarded because Append rejected them.
  size_t dropped_count() const;

  /// Seals the active segment, writes every unpersisted segment to its
  /// partition directory, checkpoints the manifest, and (when compaction is
  /// enabled) kicks a background merge of small segments. This is the
  /// store's checkpoint operation: everything appended before a returning
  /// Flush survives a crash. No-op persistence for memory-only stores.
  Status Flush();

  /// Synchronously merges small adjacent sealed segments until no eligible
  /// run remains (regardless of options.compaction). Returns the first
  /// error; already-applied merges stay applied.
  Status Compact();

  /// Blocks until the background compaction pass in flight (if any) has
  /// finished.
  void WaitForCompaction() const;

  // ---- JSON-compatible import ----------------------------------------------

  /// Imports one "<device>.result.json" result file (core::ReadResultFile).
  Result<SequenceId> ImportResultFile(const std::string& path);

  /// Imports every "*.result.json" of a directory in name order. Returns the
  /// number of sequences imported.
  Result<size_t> ImportResultDir(const std::string& dir);

  // ---- queries --------------------------------------------------------------

  /// All stored triplets of `device`, across every appended sequence, merged
  /// into one sequence sorted by begin time. Empty sequence (with the device
  /// id set) when the device is unknown.
  core::MobilitySemanticsSequence DeviceHistory(const std::string& device) const;

  /// Every stored triplet in `region` whose time range overlaps [t0, t1],
  /// sorted by (begin, device, end). Index-backed: only sequences whose
  /// region postings overlap the window are scanned (and only their segments
  /// are materialized).
  std::vector<RegionVisit> RegionVisitors(dsm::RegionId region, TimestampMs t0,
                                          TimestampMs t1) const;

  /// Transitions from `from` to `to` over consecutive triplets of stored
  /// sequences — the pairwise slice of MobilityAnalytics::FlowMatrix.
  size_t FlowBetween(dsm::RegionId from, dsm::RegionId to) const;

  /// The full region-transition matrix of the stored corpus.
  std::map<dsm::RegionId, std::map<dsm::RegionId, size_t>> FlowMatrix() const;

  /// Copies of every stored sequence whose span overlaps [t0, t1], in append
  /// order. Two-level pruning: whole time partitions outside the window are
  /// skipped first, then individual segments via their spans; only surviving
  /// segments are materialized and scanned (segment-parallel).
  std::vector<core::MobilitySemanticsSequence> SequencesInRange(
      TimestampMs t0, TimestampMs t1) const;

  /// Visits every stored sequence in append order (brute-force scans,
  /// exports). The callback must not reenter the store.
  void ForEachSequence(
      const std::function<void(SequenceId, const core::MobilitySemanticsSequence&)>&
          fn) const;

  /// Region-level analytics over the whole store, built segment-parallel
  /// (per-segment partials merged in segment order — identical to feeding
  /// every sequence to one MobilityAnalytics). `dsm` may be null.
  core::MobilityAnalytics BuildAnalytics(const dsm::Dsm* dsm = nullptr) const;

  /// Devices with stored sequences, sorted.
  std::vector<std::string> Devices() const;

  /// Aggregate counters.
  StoreStats Stats() const;

 private:
  struct Segment {
    SequenceId base = 0;          ///< id of the segment's first sequence
    uint64_t sequence_count = 0;  ///< valid even before materialization
    uint64_t triplet_count = 0;
    TimeRange span;       ///< union of member spans; meaningless without triplets
    bool has_span = false;
    bool sealed = false;
    bool persisted = false;
    int64_t partition = 0;    ///< time bucket; assigned at first spanned append
    std::string file;         ///< path relative to the directory, when persisted
    uint64_t checksum = 0;    ///< FNV-1a of the encoded blob, when persisted
    MappedFile mapping;       ///< keeps lazily decoded bytes alive

    // Lazy body: guarded by mat_mu + the materialized flag, not by the
    // store-wide lock, so readers holding the shared lock can materialize
    // different segments concurrently.
    mutable std::vector<core::MobilitySemanticsSequence> sequences;
    mutable std::atomic<bool> materialized{true};
    mutable std::mutex mat_mu;
  };
  /// Region posting: one stored sequence visiting the region, with the union
  /// time fence of its visits (queries skip sequences outside the window).
  struct RegionPosting {
    SequenceId sequence = 0;
    TimeRange fence;
  };

  /// Region -> postings in the CSR bucket idiom of dsm::SpatialIndex: one
  /// contiguous postings array grouped by region (regions/offsets/postings)
  /// plus a small append tail that is merged in amortized-O(1) compactions
  /// and forced empty at every segment seal. A region's postings scan is
  /// then one cache-dense range (plus the short tail) instead of a
  /// node-based map walk.
  struct RegionPostingsIndex {
    std::vector<dsm::RegionId> regions;   ///< ascending, unique
    std::vector<uint32_t> offsets;        ///< postings of regions[i]: [offsets[i], offsets[i+1])
    std::vector<RegionPosting> postings;  ///< grouped by region, append order within
    std::vector<std::pair<dsm::RegionId, RegionPosting>> tail;  ///< not yet merged

    /// Appends one posting (tail write; compacts when the tail outgrows a
    /// quarter of the CSR body).
    void Add(dsm::RegionId region, const RegionPosting& posting);
    /// Merges the tail into the CSR arrays (stable: append order preserved).
    void Compact();
    /// Appends `region`'s postings — CSR range first, then tail hits, which
    /// together enumerate them in append order — onto `out`.
    void CollectInto(dsm::RegionId region, std::vector<RegionPosting>* out) const;
  };

  /// Spanned segments of one time-partition bucket, with the bucket's union
  /// span for whole-partition pruning.
  struct PartitionInfo {
    std::vector<size_t> segments;  ///< indexes into segments_, ascending
    TimeRange span;
    bool has_span = false;
  };

  /// One planned background merge, captured while holding the writer lock.
  struct PendingCompaction {
    size_t begin = 0;  ///< segment index range [begin, end) to merge
    size_t end = 0;
    SequenceId base = 0;
    int64_t partition = 0;
    std::string file;  ///< reserved output path, relative to the directory
  };

  /// Resolved "store." metric pointers (all null when options.metrics is).
  struct StoreMetrics {
    obs::Histogram* append_ns = nullptr;   ///< Append call wall time
    obs::Counter* appended_sequences = nullptr;
    obs::Counter* appended_triplets = nullptr;
    obs::Histogram* query_ns = nullptr;    ///< any public query's wall time
    obs::Counter* queries = nullptr;
    obs::Gauge* segments = nullptr;        ///< segments held (incl. active)
    obs::Gauge* persisted_segments = nullptr;
    obs::Counter* persisted_bytes = nullptr;  ///< encoded blob bytes written
    obs::Counter* mapped_segments = nullptr;  ///< segments opened via footer only
    obs::Counter* materializations = nullptr;  ///< lazy body decodes performed
    obs::Counter* decode_errors = nullptr;     ///< bodies that failed to decode
    obs::Counter* dropped_segments = nullptr;  ///< corrupt segments skipped at Open
    obs::Counter* compactions = nullptr;       ///< merges applied
    obs::Counter* compacted_segments = nullptr;  ///< inputs consumed by merges
    obs::Counter* manifest_writes = nullptr;
  };

  explicit TripStore(StoreOptions options);

  struct PendingLoad;  // one pre-validated segment file during Open

  int64_t PartitionBucket(TimestampMs t) const;
  std::string PartitionedFileName(int64_t partition, size_t file_index) const;

  Status LoadDirectoryLocked();
  Status ScanDirectoryLocked();
  struct StagedSegmentIndex;

  // Maps one segment file and validates its footer (decoding the body up
  // front when mmap is off). Any failure lets the caller drop the file,
  // except a file in the retired v1 format: that sets *retired, and Open
  // fails with the returned error.
  Result<PendingLoad> MapSegmentFile(const std::string& relative,
                                     bool* retired) const;
  void AttachLoadedLocked(PendingLoad load);
  /// Applies every staged segment footer to the in-memory indexes (device
  /// map, region postings, flow matrix). Cheap no-op once hydrated.
  void HydrateIndexes() const;
  void HydrateIndexesLocked();
  void SealSegmentLocked(Segment& segment);
  Status PersistSegmentLocked(size_t segment_index);
  Status WriteManifestLocked();
  void RebuildPartitionIndexLocked();
  void NoteSegmentSpanLocked(size_t segment_index);
  void EnsureMaterialized(const Segment& segment) const;
  void IndexSequenceLocked(SequenceId id, const core::MobilitySemanticsSequence& seq);
  void AddToLastSegmentLocked(core::MobilitySemanticsSequence seq);
  Result<SequenceId> AppendLocked(core::MobilitySemanticsSequence seq);
  const core::MobilitySemanticsSequence& SequenceLocked(SequenceId id) const;
  void AddFlowLocked(dsm::RegionId from, dsm::RegionId to, size_t count);

  void MaybeScheduleCompaction(bool force);
  bool PrepareCompactionLocked(PendingCompaction* out);
  Status ExecuteCompaction(const PendingCompaction& pending);
  void CompactionWorker();

  StoreOptions options_;
  StoreMetrics metrics_;  // resolved once at construction
  mutable util::ThreadPool own_pool_;
  util::ThreadPool* pool_;  ///< options_.shared_pool or &own_pool_
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Segment>> segments_;
  size_t next_file_index_ = 0;
  /// Region ids below this use the dense flow rows; anything else (negative
  /// ids other than kInvalidRegion, or absurdly large ones from hand-written
  /// imports) falls back to the sparse overflow map, so a stray id can never
  /// force a giant row allocation — the old map-of-maps accepted any id.
  static constexpr dsm::RegionId kDenseFlowLimit = 1 << 14;

  // Indexes (all guarded by mu_: appends/compactions exclusive, reads shared).
  //
  // After an Open the indexes are NOT built yet: each loaded segment's footer
  // is parked in staged_index_ and the first call that actually reads an
  // index — or the first append, which must extend it — hydrates them all in
  // one bulk pass (HydrateIndexes). Span-pruned scans like SequencesInRange
  // never touch the indexes, so a cold open followed by a window query pays
  // for neither index construction nor body decode outside the window.
  std::vector<std::unique_ptr<StagedSegmentIndex>> staged_index_;
  mutable std::atomic<bool> indexes_ready_{true};
  std::map<std::string, std::vector<SequenceId>> device_index_;
  RegionPostingsIndex region_index_;
  /// Partition bucket -> spanned member segments (two-level range pruning).
  std::map<int64_t, PartitionInfo> partition_index_;
  // Flow matrix as flat per-source rows (row = contiguous counts indexed by
  // destination region id) instead of nested maps: FlowBetween is two bounds
  // checks + one load, FlowMatrix one dense sweep. Out-of-band ids live in
  // flow_overflow_.
  std::vector<std::vector<size_t>> flow_;
  std::map<std::pair<dsm::RegionId, dsm::RegionId>, size_t> flow_overflow_;
  size_t triplet_count_ = 0;
  size_t sequence_count_ = 0;
  size_t dropped_ = 0;

  // Background compaction state (own mutex: RunCompaction signals completion
  // without holding mu_; lock order is always mu_ before compaction_mu_).
  mutable std::mutex compaction_mu_;
  mutable std::condition_variable compaction_cv_;
  bool compaction_inflight_ = false;
  Status compaction_error_;  ///< first failure of the current/last pass
};

}  // namespace trips::store
