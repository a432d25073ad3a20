#include "db/parallel_algebra.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "db/algebra.h"
#include "db/join_key.h"
#include "obs/obs.h"
#include "util/check.h"

namespace cspdb {
namespace {

using db_internal::HashKeyAt;
using db_internal::kNoRow;
using db_internal::SharedPositions;

exec::ThreadPool* ResolvePool(const ParallelDbOptions& options) {
  return options.pool != nullptr ? options.pool : &exec::ThreadPool::Global();
}

// Runs fn(m) for every morsel index in [0, count): num_threads pool tasks
// plus the calling thread (TaskGroup::Wait helps) pull indices from a
// shared atomic cursor, so a slow morsel never strands the rest of its
// preassigned range the way static striping can.
void MorselFor(exec::ThreadPool* pool, int64_t count,
               const std::function<void(int64_t)>& fn) {
  if (count <= 0) return;
  std::atomic<int64_t> cursor{0};
  auto drain = [&cursor, &fn, count] {
    for (int64_t m = cursor.fetch_add(1, std::memory_order_relaxed);
         m < count; m = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(m);
    }
  };
  // The caller drains inline (so a helper that wakes late finds the
  // cursor exhausted and exits) and only min(threads, morsels) - 1
  // helpers are ever spawned.
  const int64_t helpers =
      std::min<int64_t>(std::max(1, pool->num_threads()), count) - 1;
  if (helpers <= 0) {
    drain();
    return;
  }
  exec::TaskGroup group(pool);
  for (int64_t t = 0; t < helpers; ++t) group.Run(drain);
  drain();
  group.Wait();
}

constexpr std::size_t kMinParallelBuildRows = 1 << 16;

// A morsel-parallel partition build only pays when the machine can
// actually run the passes concurrently: on a single hardware thread the
// histogram/prefix/scatter barriers are pure overhead over the fused
// serial build (which produces the identical layout).
bool UseParallelBuild(std::size_t rows, exec::ThreadPool* pool) {
  static const unsigned hw = std::thread::hardware_concurrency();
  return rows >= kMinParallelBuildRows && pool->num_threads() > 1 && hw > 1;
}

// Probe rows are hashed (and their buckets prefetched) this many at a
// time before any chain is walked — see PartitionedKeyIndex::PrefetchBucket.
constexpr std::size_t kProbeChunk = 256;

std::size_t RoundUpPow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

// Partition count heuristic, sized by the index's actual footprint:
// keys + payload columns, a next-chain slot, and ~1.5 bucket heads per
// build row. While the whole index is cache-resident partitioning
// cannot buy locality, so a single partition skips the routing cost
// entirely; past the threshold, aim for ~256KB per partition so a
// partition's chains stay hot during its probes, capped so huge builds
// don't drown in empty partitions. Key-only builds (no payload: every
// s attribute is shared with r) touch so few bytes per build row that
// cache covers much larger indexes before partitioning pays — their
// threshold is 8x higher.
// The choice never affects output.
std::size_t AutoPartitions(std::size_t build_rows, std::size_t key_arity,
                           std::size_t store_arity) {
  const std::size_t bytes_per_row =
      (key_arity + store_arity) * sizeof(int) + sizeof(uint32_t) +
      sizeof(uint32_t) * 3 / 2;
  const std::size_t footprint = build_rows * bytes_per_row;
  const std::size_t threshold = store_arity == 0 ? (8u << 20) : (1u << 20);
  if (footprint < threshold) return 1;
  return RoundUpPow2(std::min<std::size_t>(256, footprint >> 18));
}

// The build side of a partitioned join: per-partition column-grouped
// copies of the build rows (original order preserved) plus a
// bucket-chained index per partition. Key columns land contiguous per
// local row (dense chain compares), and the caller may ask for a second
// contiguous group of "payload" columns (`store_pos`, e.g. the
// non-shared columns a natural join emits) so output assembly is a
// straight range copy instead of a position-indirected gather.
//
// Two build paths produce bit-identical layouts:
//
//   - serial (below kMinParallelBuildRows or a 1-thread pool): pass A
//     hashes every row once and counts rows per partition; exact-size
//     allocation; pass B scatters keys/payloads with raw cursor writes
//     and threads the bucket chains inline while the hash is still in
//     register — one hash per row, no vector growth, no rehash;
//   - morsel-parallel: pass 1 hashes + per-(morsel, partition)
//     histograms; an exclusive prefix lays partition p's rows out in
//     morsel-then-row order (i.e. original row order); pass 2 scatters
//     keys/payloads/hashes into disjoint slices; pass 3 chains each
//     partition from the scattered hashes.
//
// Both paths place rows within a partition in original row order and
// push-front the chains like the serial KeyIndex, so a partition chain
// enumerates matches in descending original row index — exactly the
// serial KeyIndex order restricted to the partition, which holds every
// row that can match (equal keys hash equally). Neither the path taken
// nor the worker count affects the layout.
class PartitionedKeyIndex {
 public:
  /// Builds the partitioned index over `rel`'s `key_pos` columns,
  /// additionally copying the `store_pos` columns of each row into its
  /// partition as a contiguous payload (an empty vector moves key
  /// columns only).
  PartitionedKeyIndex(const DbRelation& rel, const std::vector<int>& key_pos,
                      const std::vector<int>& store_pos,
                      std::size_t num_partitions, std::size_t morsel_rows,
                      exec::ThreadPool* pool,
                      bool force_parallel_build = false)
      : key_pos_(key_pos),
        key_arity_(key_pos.size()),
        store_pos_(store_pos),
        store_arity_(store_pos.size()) {
    const std::size_t rows = rel.size();
    const std::size_t p_count = RoundUpPow2(std::max<std::size_t>(
        1, std::min(num_partitions, rows == 0 ? 1 : rows)));
    log2p_ = std::countr_zero(p_count);
    parts_.resize(p_count);
    if (rows == 0) return;

    const int* data = rel.data().data();
    const std::size_t arity = static_cast<std::size_t>(rel.arity());

    if (force_parallel_build || UseParallelBuild(rows, pool)) {
      BuildParallel(data, rows, arity, morsel_rows, pool);
    } else {
      BuildSerial(data, rows, arity);
    }
  }

  struct Partition {
    // Key columns of each local row, contiguous in key_pos order: chain
    // walks compare against these (dense 4-byte loads, no position
    // indirection) instead of the scattered full rows.
    std::vector<int> keys;
    // store_pos columns of each local row, contiguous: a match's output
    // payload is copied straight out of here.
    std::vector<int> payload;
    std::vector<uint32_t> heads;
    std::vector<uint32_t> next;
    std::size_t mask = 0;
    std::size_t num_rows = 0;
  };

  uint64_t HashProbe(const int* probe_row,
                     const std::vector<int>& probe_pos) const {
    return HashKeyAt(probe_row, probe_pos);
  }

  /// The partition `hash` routes to. Probe loops resolve this once per
  /// probe row and thread the reference through First/NextMatch — the
  /// chain walk then never re-derefs parts_.
  const Partition& PartitionFor(uint64_t hash) const {
    return parts_[PartitionOf(hash)];
  }

  /// True when the index is big enough that bucket-head loads are
  /// likely cache misses — the probe loops only pay for the
  /// hash-a-chunk-and-prefetch dance when it can hide miss latency;
  /// on an L2-resident index it is pure overhead.
  bool PrefetchWorthwhile() const {
    std::size_t bytes = 0;
    for (const Partition& part : parts_) {
      bytes += part.keys.capacity() * sizeof(int) +
               part.payload.capacity() * sizeof(int) +
               (part.heads.capacity() + part.next.capacity()) *
                   sizeof(uint32_t);
    }
    return bytes > (1u << 20);
  }

  /// Warms the cache line of `hash`'s bucket head. Probe loops hash a
  /// chunk of rows and prefetch their buckets before walking any chain,
  /// so the random head loads overlap instead of serializing.
  void PrefetchBucket(uint64_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
    const Partition& part = parts_[PartitionOf(hash)];
    if (part.num_rows != 0) {
      __builtin_prefetch(part.heads.data() + (hash & part.mask));
    }
#else
    (void)hash;
#endif
  }

  /// First local row of `part` matching `probe_row` given its
  /// precomputed key hash, or kNoRow. Iterate with NextMatch.
  uint32_t FirstMatch(const Partition& part, uint64_t hash,
                      const int* probe_row,
                      const std::vector<int>& probe_pos) const {
    if (part.num_rows == 0) return kNoRow;
    return NextInChain(part, part.heads[hash & part.mask], probe_row,
                       probe_pos);
  }

  uint32_t NextMatch(const Partition& part, uint32_t local,
                     const int* probe_row,
                     const std::vector<int>& probe_pos) const {
    return NextInChain(part, part.next[local], probe_row, probe_pos);
  }

  /// The contiguous store_pos columns of `local` in `part`.
  const int* Payload(const Partition& part, uint32_t local) const {
    return part.payload.data() +
           static_cast<std::size_t>(local) * store_arity_;
  }

 private:
  // Sizes a partition's bucket table and chain array for its final row
  // count (the serial KeyIndex load factor).
  static void SizeBuckets(Partition* part) {
    std::size_t buckets = 16;
    while (buckets < part->num_rows + (part->num_rows >> 1) + 1) {
      buckets <<= 1;
    }
    part->mask = buckets - 1;
    part->heads.assign(buckets, kNoRow);
    part->next.assign(part->num_rows, kNoRow);
  }

  void BuildSerial(const int* data, std::size_t rows, std::size_t arity) {
    if (parts_.size() == 1) {
      // Single partition: sizes are known up front, so one pass does it
      // all — the same hash+2-chain-writes per row as the serial
      // KeyIndex, plus the key/payload copy.
      Partition& part = parts_[0];
      part.num_rows = rows;
      part.keys.resize(rows * key_arity_);
      part.payload.resize(rows * store_arity_);
      SizeBuckets(&part);
      const int* row = data;
      for (std::size_t i = 0; i < rows; ++i, row += arity) {
        int* key_out = part.keys.data() + i * key_arity_;
        for (std::size_t j = 0; j < key_arity_; ++j) {
          key_out[j] = row[key_pos_[j]];
        }
        int* pay_out = part.payload.data() + i * store_arity_;
        for (std::size_t j = 0; j < store_arity_; ++j) {
          pay_out[j] = row[store_pos_[j]];
        }
        const std::size_t b = HashKeyAt(row, key_pos_) & part.mask;
        part.next[i] = part.heads[b];
        part.heads[b] = static_cast<uint32_t>(i);
      }
      return;
    }
    // Pass A: one hash per row (kept for pass B), exact per-partition
    // row counts.
    std::vector<uint64_t> row_hash(rows);
    const int* row = data;
    for (std::size_t i = 0; i < rows; ++i, row += arity) {
      const uint64_t h = HashKeyAt(row, key_pos_);
      row_hash[i] = h;
      ++parts_[PartitionOf(h)].num_rows;
    }
    for (Partition& part : parts_) {
      part.keys.resize(part.num_rows * key_arity_);
      part.payload.resize(part.num_rows * store_arity_);
      SizeBuckets(&part);
      part.num_rows = 0;  // reused as the scatter cursor below
    }
    // Pass B: scatter + chain in one sweep. Scanning i upward makes
    // partition-local order == original row order, and push-front here
    // is exactly what BuildChains would do afterwards.
    row = data;
    for (std::size_t i = 0; i < rows; ++i, row += arity) {
      const uint64_t h = row_hash[i];
      Partition& part = parts_[PartitionOf(h)];
      const std::size_t local = part.num_rows++;
      int* key_out = part.keys.data() + local * key_arity_;
      for (std::size_t j = 0; j < key_arity_; ++j) {
        key_out[j] = row[key_pos_[j]];
      }
      int* pay_out = part.payload.data() + local * store_arity_;
      for (std::size_t j = 0; j < store_arity_; ++j) {
        pay_out[j] = row[store_pos_[j]];
      }
      const std::size_t b = h & part.mask;
      part.next[local] = part.heads[b];
      part.heads[b] = static_cast<uint32_t>(local);
    }
  }

  void BuildParallel(const int* data, std::size_t rows, std::size_t arity,
                     std::size_t morsel_rows, exec::ThreadPool* pool) {
    const std::size_t p_count = parts_.size();
    const std::size_t morsel = std::max<std::size_t>(1, morsel_rows);
    const int64_t num_morsels =
        static_cast<int64_t>((rows + morsel - 1) / morsel);

    // Pass 1: hashes + per-(morsel, partition) histogram.
    std::vector<uint64_t> row_hash(rows);
    std::vector<uint32_t> cell(
        static_cast<std::size_t>(num_morsels) * p_count, 0);
    MorselFor(pool, num_morsels, [&](int64_t m) {
      const std::size_t begin = static_cast<std::size_t>(m) * morsel;
      const std::size_t end = std::min(begin + morsel, rows);
      uint32_t* counts = cell.data() + static_cast<std::size_t>(m) * p_count;
      for (std::size_t i = begin; i < end; ++i) {
        const uint64_t h = HashKeyAt(data + i * arity, key_pos_);
        row_hash[i] = h;
        ++counts[PartitionOf(h)];
      }
    });

    // Exclusive prefix over (partition, morsel): cell[m * P + p] becomes
    // the first local slot for morsel m's rows of partition p.
    std::vector<std::size_t> hash_base(p_count);
    std::size_t total = 0;
    for (std::size_t p = 0; p < p_count; ++p) {
      uint32_t running = 0;
      for (int64_t m = 0; m < num_morsels; ++m) {
        uint32_t* slot =
            cell.data() + static_cast<std::size_t>(m) * p_count + p;
        const uint32_t count = *slot;
        *slot = running;
        running += count;
      }
      Partition& part = parts_[p];
      part.num_rows = running;
      part.keys.resize(static_cast<std::size_t>(running) * key_arity_);
      part.payload.resize(static_cast<std::size_t>(running) * store_arity_);
      hash_base[p] = total;
      total += running;
    }

    // Pass 2: scatter keys, payloads, and hashes. Each task owns its
    // morsel's cursor cells, and the precomputed offsets make every
    // (morsel, partition) slice disjoint, so the writes race with
    // nothing and land in deterministic slots. Hashes go to a transient
    // partition-major array so pass 3 never rehashes.
    std::vector<uint64_t> scattered_hash(rows);
    MorselFor(pool, num_morsels, [&](int64_t m) {
      const std::size_t begin = static_cast<std::size_t>(m) * morsel;
      const std::size_t end = std::min(begin + morsel, rows);
      uint32_t* cursor = cell.data() + static_cast<std::size_t>(m) * p_count;
      for (std::size_t i = begin; i < end; ++i) {
        const int* row = data + i * arity;
        const uint64_t h = row_hash[i];
        const std::size_t p = PartitionOf(h);
        Partition& part = parts_[p];
        const std::size_t local = cursor[p]++;
        int* key_out = part.keys.data() + local * key_arity_;
        for (std::size_t j = 0; j < key_arity_; ++j) {
          key_out[j] = row[key_pos_[j]];
        }
        int* pay_out = part.payload.data() + local * store_arity_;
        for (std::size_t j = 0; j < store_arity_; ++j) {
          pay_out[j] = row[store_pos_[j]];
        }
        scattered_hash[hash_base[p] + local] = h;
      }
    });

    // Pass 3: bucket chains per partition, local order, push-front (the
    // serial KeyIndex recipe, so chain order matches it exactly).
    MorselFor(pool, static_cast<int64_t>(p_count), [&](int64_t pi) {
      Partition& part = parts_[static_cast<std::size_t>(pi)];
      SizeBuckets(&part);
      const uint64_t* hashes =
          scattered_hash.data() + hash_base[static_cast<std::size_t>(pi)];
      for (std::size_t j = 0; j < part.num_rows; ++j) {
        const std::size_t b = hashes[j] & part.mask;
        part.next[j] = part.heads[b];
        part.heads[b] = static_cast<uint32_t>(j);
      }
    });
  }

  std::size_t PartitionOf(uint64_t hash) const {
    // Top bits: the KeyIndex-style bucket mask uses the low bits, so
    // partitioning must not alias them or every partition would occupy
    // only 1/P of its buckets.
    return log2p_ == 0 ? 0 : static_cast<std::size_t>(hash >> (64 - log2p_));
  }

  uint32_t NextInChain(const Partition& part, uint32_t candidate,
                       const int* probe_row,
                       const std::vector<int>& probe_pos) const {
    if (key_arity_ == 1) {
      // Single-attribute joins (the common CSP case) walk the chain with
      // two dense loads per step — possible only because keys are
      // stored contiguously per partition.
      const int probe_key = probe_row[probe_pos[0]];
      const int* keys = part.keys.data();
      while (candidate != kNoRow && keys[candidate] != probe_key) {
        candidate = part.next[candidate];
      }
      return candidate;
    }
    while (candidate != kNoRow) {
      const int* key =
          part.keys.data() + static_cast<std::size_t>(candidate) * key_arity_;
      bool equal = true;
      for (std::size_t j = 0; j < key_arity_; ++j) {
        if (probe_row[probe_pos[j]] != key[j]) {
          equal = false;
          break;
        }
      }
      if (equal) return candidate;
      candidate = part.next[candidate];
    }
    return kNoRow;
  }

  const std::vector<int>& key_pos_;
  std::size_t key_arity_;
  const std::vector<int>& store_pos_;
  std::size_t store_arity_;
  int log2p_ = 0;
  std::vector<Partition> parts_;
};

// A grow-by-doubling flat int buffer for morsel outputs. Unlike
// vector::resize it never value-initializes the tail — growth is an
// allocation plus a copy of the live prefix, so emitting N ints costs
// ~N writes instead of ~3N (write + two memset passes over doubled
// capacity).
struct RowBuffer {
  std::unique_ptr<int[]> data;
  std::size_t len = 0;  // ints written
  std::size_t cap = 0;  // ints allocated

  // Returns the write cursor with room for at least `need` more ints.
  int* Room(std::size_t need) {
    if (len + need > cap) Grow(len + need);
    return data.get() + len;
  }

  void Grow(std::size_t need) {
    std::size_t new_cap = std::max<std::size_t>(cap * 2, 1024);
    while (new_cap < need) new_cap *= 2;
    std::unique_ptr<int[]> bigger(new int[new_cap]);
    std::copy(data.get(), data.get() + len, bigger.get());
    data = std::move(bigger);
    cap = new_cap;
  }
};

// Concatenates per-chunk row buffers (each a flat arity-strided int
// array) into `out` in chunk order.
void ConcatBuffers(const std::vector<RowBuffer>& buffers, int arity,
                   DbRelation* out) {
  std::size_t total_rows = 0;
  for (const RowBuffer& buf : buffers) {
    total_rows += buf.len / static_cast<std::size_t>(arity);
  }
  out->Reserve(total_rows);
  for (const RowBuffer& buf : buffers) {
    out->AppendRowsUnchecked(buf.data.get(),
                             buf.len / static_cast<std::size_t>(arity));
  }
}

}  // namespace

DbRelation NaturalJoinParallel(const DbRelation& r, const DbRelation& s,
                               const ParallelDbOptions& options) {
  exec::ThreadPool* pool = ResolvePool(options);
  if (pool->num_threads() <= 1 || r.size() < options.min_probe_rows ||
      s.empty()) {
    return NaturalJoin(r, s);
  }
  CSPDB_TRACE_SPAN("db.natural_join_parallel");
  CSPDB_COUNT("db.joins");
  std::vector<int> r_pos, s_pos;
  SharedPositions(r, s, &r_pos, &s_pos);
  std::vector<int> schema = r.schema();
  std::vector<int> s_extra_pos;
  for (std::size_t i = 0; i < s.schema().size(); ++i) {
    if (r.AttributePosition(s.schema()[i]) < 0) {
      schema.push_back(s.schema()[i]);
      s_extra_pos.push_back(static_cast<int>(i));
    }
  }
  const int r_arity = r.arity();
  const int out_arity = static_cast<int>(schema.size());
  DbRelation out(std::move(schema));

  const std::size_t morsel = std::max<std::size_t>(1, options.morsel_rows);
  const std::size_t partitions =
      options.num_partitions != 0
          ? options.num_partitions
          : AutoPartitions(s.size(), s_pos.size(), s_extra_pos.size());
  PartitionedKeyIndex index(s, s_pos, s_extra_pos, partitions, morsel, pool,
                            options.force_parallel_build);

  const std::size_t n_extra = s_extra_pos.size();
  const int64_t num_morsels =
      static_cast<int64_t>((r.size() + morsel - 1) / morsel);
  std::vector<RowBuffer> buffers(static_cast<std::size_t>(num_morsels));
  const int* r_data = r.data().data();
  const bool chunked = index.PrefetchWorthwhile();
  MorselFor(pool, num_morsels, [&](int64_t m) {
    RowBuffer& buf = buffers[static_cast<std::size_t>(m)];
    const std::size_t begin = static_cast<std::size_t>(m) * morsel;
    const std::size_t end = std::min(begin + morsel, r.size());
    auto probe_one = [&](std::size_t i, uint64_t hash) {
      const int* rrow = r_data + i * static_cast<std::size_t>(r_arity);
      const PartitionedKeyIndex::Partition& part = index.PartitionFor(hash);
      for (uint32_t match = index.FirstMatch(part, hash, rrow, r_pos);
           match != kNoRow; match = index.NextMatch(part, match, rrow, r_pos)) {
        // The match's payload is the s-extra columns, already contiguous
        // in output order: the out row is two straight range copies into
        // the raw write cursor, no per-column gather.
        int* dst = buf.Room(static_cast<std::size_t>(out_arity));
        std::copy(rrow, rrow + r_arity, dst);
        const int* payload = index.Payload(part, match);
        std::copy(payload, payload + n_extra, dst + r_arity);
        buf.len += static_cast<std::size_t>(out_arity);
      }
    };
    if (chunked) {
      uint64_t hashes[kProbeChunk];
      for (std::size_t cb = begin; cb < end; cb += kProbeChunk) {
        const std::size_t ce = std::min(cb + kProbeChunk, end);
        for (std::size_t i = cb; i < ce; ++i) {
          const uint64_t h = index.HashProbe(
              r_data + i * static_cast<std::size_t>(r_arity), r_pos);
          hashes[i - cb] = h;
          index.PrefetchBucket(h);
        }
        for (std::size_t i = cb; i < ce; ++i) probe_one(i, hashes[i - cb]);
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        probe_one(i, index.HashProbe(
                         r_data + i * static_cast<std::size_t>(r_arity),
                         r_pos));
      }
    }
  });
  // Morsel-ordered concatenation == probe-row order == serial row order.
  ConcatBuffers(buffers, out_arity, &out);
  CSPDB_COUNT_N("db.join.rows_out", static_cast<int64_t>(out.size()));
  CSPDB_GAUGE_MAX("db.join.peak_rows", static_cast<int64_t>(out.size()));
  return out;
}

}  // namespace cspdb
