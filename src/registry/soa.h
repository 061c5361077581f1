#ifndef LAKE_REGISTRY_SOA_H
#define LAKE_REGISTRY_SOA_H

/**
 * @file
 * The registry's capture→score data plane (DESIGN.md §12): every
 * Registry stores its feature vectors in one schema-indexed, cache-line-
 * tiled structure-of-arrays column store. A store carves its columns
 * from the lakeShm arena when given one (every registry of a booted
 * Lake lives in shard 0's arena) and otherwise owns a 64-byte-aligned
 * heap block (standalone registries and managers):
 *
 *  - captureFeature / captureFeatureIncr write through a column index
 *    resolved once from the Schema (no hashing, no allocation) with
 *    relaxed atomics into the open vector's live lanes, one cache line
 *    per column (no false sharing between features);
 *  - commit is a slot *seal* — claim a fixed-stride slot, snapshot the
 *    live lanes and the presence mask into it, inherit history lanes,
 *    encode one float row — plus a ring-index append;
 *  - a ScoreServer batch is an FvBatchView: a pinned, zero-copy window
 *    over committed slots whose float rows feed the blocked GEMM and
 *    batched kNN substrate as strided MatrixViews, with no gather/pack
 *    step (reg_pack_bytes stays 0 on this path). FvBatchView is also
 *    the only batch a classifier ever sees: caller-built FeatureVectors
 *    reach it as *borrowed* rows of the same view type, encoded with
 *    the store's float encoder only if the classifier asks for floats.
 *    Only FvBatchView knows the two row formats.
 *
 * Slot lifecycle: free → open (while a seal fills it) → sealed (in the
 * window ring) → recycled. Recycling a slot still referenced by an
 * in-flight FvBatchView is *deferred* until the last view unpins it, so
 * a window wrap or truncate can never rewrite bytes a batch is reading.
 *
 * Feature-vector semantics (the equivalence tests replay them against
 * a map-based reference model): a column captured once stays present
 * in every later vector, lane 0 of every ever-captured column carries
 * forward across commits (incremental counters persist), and history
 * lanes 1..E-1 inherit entries 0..E-2 of the previous sealed vector.
 * materialize() renders a slot as the Table 1 FeatureVector.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "base/aligned.h"
#include "base/ring_buffer.h"
#include "base/time.h"
#include "ml/matrix.h"
#include "registry/schema.h"
#include "shm/arena.h"

namespace lake::registry {

struct FeatureVector;
class SoaStore;

/** Boot-time knobs of the SoA data plane (LakeConfig.soa_plane). */
struct SoaConfig
{
    /**
     * Always true: the SoA store is the only plane. Kept only because
     * the frozen perfbench driver records LakeConfig().soa_plane.enabled
     * in its result JSON; fold it away with the next benchmark change.
     */
    static constexpr bool enabled = true;
    /**
     * Extra slots beyond window + 1 (sealed window plus the next slot)
     * that absorb recycle deferral while batch views are in flight. A
     * store panics only when every spare slot is pinned *and* the
     * window wraps — size this to the deepest concurrent batch.
     */
    std::size_t slack = 8;

    /** Applies the LAKE_SOA_SLACK environment override (explicit
     *  opt-in, same idiom as ScoringConfig::applyEnv). */
    void applyEnv();
};

/**
 * The batch a classifier scores: rows that are either pinned committed
 * slots or borrowed caller FeatureVectors, in view order.
 *
 * Move-only RAII: every referenced slot stays unrecycled (its bytes
 * immutable) until the view destructs. Views are cheap to create —
 * pinning is a counter bump — and compose: ScoreServer coalescing
 * append()s per-request views into one dispatch view.
 *
 * Borrowed rows point at caller-owned vectors and are not pinned, so
 * only Registry and ScoreServer may build them (borrow() is private):
 * each keeps its borrowed view alive for exactly one score call, inside
 * the lifetime of the vectors it reads.
 */
class FvBatchView
{
  public:
    FvBatchView() = default;
    ~FvBatchView();

    FvBatchView(FvBatchView &&other) noexcept
        : blocks_(std::move(other.blocks_)), rows_(other.rows_)
    {
        other.blocks_.clear();
        other.rows_ = 0;
    }
    FvBatchView &operator=(FvBatchView &&other) noexcept;

    FvBatchView(const FvBatchView &) = delete;
    FvBatchView &operator=(const FvBatchView &) = delete;

    /** Total vectors (rows) in the view. */
    std::size_t size() const { return rows_; }
    bool empty() const { return rows_ == 0; }

    /** Capture-window timestamps of row @p row. */
    Nanos tsBegin(std::size_t row) const;
    Nanos tsEnd(std::size_t row) const;

    /** Scalar read by schema key: lane 0, 0 when never captured or
     *  outside the schema. */
    std::uint64_t get(std::size_t row, std::uint64_t key) const;

    /** Lane read by column index (entry 0 = most recent). */
    std::uint64_t value(std::size_t row, std::uint32_t col,
                        std::uint32_t entry = 0) const;

    /**
     * The float windows, in row order: one strided MatrixView per
     * maximal run of consecutive slots (zero bytes moved), and one per
     * borrowed block, whose rows the store's float encoder writes on
     * the first call.
     */
    std::vector<ml::MatrixView> matrixViews() const;

    /** Steals @p other's rows onto the back of this view. */
    void append(FvBatchView other);

    /** FeatureVector copy of every row (for vector classifiers). */
    std::vector<FeatureVector> materialize() const;

    /** Bytes a FeatureVector gather of this batch would have staged. */
    std::size_t packBytesAvoided() const;

  private:
    friend class SoaStore;
    friend class Registry;
    friend class ScoreServer;

    /** Rows from one store: its pinned slots, or rows of a borrowed
     *  vector read with its schema and float encoder. */
    struct Block
    {
        SoaStore *store;
        /** Slot ids (pinned) or indices into *fvs (borrowed), in view
         *  order. */
        std::vector<std::uint32_t> rows;
        /** The borrowed vector; nullptr for pinned slots. */
        const std::vector<FeatureVector> *fvs = nullptr;
        /**
         * Borrowed rows' float encoding, filled by the first
         * matrixViews(). Not synchronized: a view is read by one
         * thread at a time, like every other view accessor.
         */
        mutable std::vector<float> floats = {};
    };

    /** A view borrowing rows [first, first + n) of @p fvs, read with
     *  @p store's schema and float encoder. */
    static FvBatchView borrow(SoaStore &store,
                              const std::vector<FeatureVector> &fvs,
                              std::size_t first, std::size_t n);

    /** Appends the rows borrow() would view, without building that
     *  view first. */
    void appendBorrowed(SoaStore &store,
                        const std::vector<FeatureVector> &fvs,
                        std::size_t first, std::size_t n);

    /**
     * Unpins every pinned row and empties the view, keeping its blocks'
     * storage for later appends: ScoreServer's combined view is reused
     * across flushes without allocating once its blocks have grown.
     */
    void recycle();

    /** The caller's vector when the view is exactly one whole borrowed
     *  vector in order, else nullptr. */
    const std::vector<FeatureVector> *wholeBorrowed() const;

    /** packBytesAvoided() of the borrowed (@p borrowed) or the pinned
     *  rows only. */
    std::size_t packBytes(bool borrowed) const;

    /** The block holding view row @p row; *idx = its Block::rows entry. */
    const Block &blockOf(std::size_t row, std::size_t *idx) const;
    /** Appends @p b, merged into the last block when both read the
     *  same store and the same rows source. */
    void pushBlock(Block b);
    /** The block the next rows from (@p store, @p fvs) append to: the
     *  last block when it reads the same source, else a new one (a
     *  recycled one when there is any). */
    Block &openBlock(SoaStore *store, const std::vector<FeatureVector> *fvs);
    /** Unpins every pinned block. */
    void release();

    std::vector<Block> blocks_;
    std::size_t rows_ = 0;
    /** Emptied blocks recycle() kept, their vectors' storage intact. */
    std::vector<Block> spare_;
};

/**
 * The columnar slot store backing one registry's capture plane.
 *
 * Layout, carved in one block (from the arena, or from the heap when
 * the store has no arena): per schema column c (declared order) a
 * region of entries(c) lanes × capacity slots of u64, each region
 * 64-byte aligned and padded. Sealed slots are immutable; captures
 * only ever touch the open vector's live lanes, one cache line per
 * column (relaxed atomic_ref; see DESIGN.md §12 for why relaxed
 * suffices). The live lanes are never cleared, so an increment racing
 * a seal lands in this vector or the next, never nowhere. The float
 * plane (capacity × roundUp(floatCols, 16) floats) is carved lazily at
 * the first seal so stores that never score pay no float memory.
 *
 * Threading: set()/add() are callable from any thread while a capture
 * is open (same contract as Registry::captureFeature), concurrently
 * with seal() too. seal(), truncate(), and view creation are
 * owner/scorer operations; the internal mutex serializes slot
 * lifecycle against pin/unpin from concurrent view destruction only.
 */
class SoaStore
{
  public:
    /** Reads one row's lanes for the float encoder: a sealing slot,
     *  or a borrowed FeatureVector read through the schema. */
    class RowReader
    {
      public:
        /** Lane @p entry of column @p col; 0 when never captured. */
        std::uint64_t value(std::uint32_t col,
                            std::uint32_t entry = 0) const;

      private:
        friend class SoaStore;
        friend class FvBatchView;
        RowReader(const SoaStore *store, std::uint32_t slot)
            : store_(store), slot_(slot)
        {}
        RowReader(const SoaStore *store, const FeatureVector *fv)
            : store_(store), fv_(fv)
        {}
        const SoaStore *store_;
        std::uint32_t slot_ = 0;
        /** The borrowed row; nullptr for a slot. */
        const FeatureVector *fv_ = nullptr;
    };

    /**
     * Float-row encoder: writes floatCols() floats for one row (a
     * sealing slot, or a borrowed vector the first time its view's
     * matrixViews() runs). The default encodes lane 0 of every column
     * in schema order (featureCount floats).
     */
    using FloatEncoder =
        std::function<void(const RowReader &row, float *out)>;

    /**
     * Builds a store for @p schema. @p window is the sealed-slot ring
     * capacity (same meaning as the registry window); total slots are
     * window + 1 + cfg.slack. The planes are carved from @p arena when
     * it is non-null, else from the heap.
     * @return nullptr when the arena cannot fit the column plane
     */
    static std::unique_ptr<SoaStore> create(Schema schema,
                                            std::size_t window,
                                            const SoaConfig &cfg,
                                            shm::ShmArena *arena);

    ~SoaStore();

    SoaStore(const SoaStore &) = delete;
    SoaStore &operator=(const SoaStore &) = delete;

    /// @name Capture plane (any thread while a capture is open)
    /// @{

    /** Sets column @p col of the open vector (relaxed atomic). */
    void
    set(std::uint32_t col, std::uint64_t value)
    {
        liveLane(col).store(value, std::memory_order_relaxed);
        markEver(col);
    }

    /** Adds @p delta to column @p col of the open vector (relaxed
     *  atomic RMW). */
    void
    add(std::uint32_t col, std::int64_t delta)
    {
        liveLane(col).fetch_add(static_cast<std::uint64_t>(delta),
                                std::memory_order_relaxed);
        markEver(col);
    }

    /// @}
    /// @name Slot lifecycle (owner-serialized)
    /// @{

    /**
     * Seals the open vector as [ts_begin, ts_end] into a free slot:
     * snapshots the presence mask and the live lanes (which stay as
     * they are — the carry-forward), inherits history lanes, encodes
     * the float row, and appends to the sealed ring (recycling the
     * overwritten slot on a window wrap).
     * @return features present in the sealed vector (the fv_len metric)
     */
    std::size_t seal(Nanos ts_begin, Nanos ts_end);

    /**
     * Installs the float encoder; must run before the first seal (the
     * float plane's width is fixed at first carve). @p float_cols = 0
     * keeps the default raw-lane encoding.
     */
    void setFloatEncoder(std::size_t float_cols, FloatEncoder fn);

    /**
     * Drops sealed slots older than @p ts front-first, keeping at least
     * @p keep_newest (the history-preservation rule), recycling each —
     * deferred while pinned. Nullopt @p ts drops unconditionally.
     */
    void truncate(std::optional<Nanos> ts, std::size_t keep_newest);

    /// @}
    /// @name Batch access
    /// @{

    /** Sealed vectors currently in the window ring. */
    std::size_t sealedCount() const;

    /** Pinned view over every sealed slot, oldest first. */
    FvBatchView viewAll() { return viewTail(SIZE_MAX); }

    /** Pinned view over the newest @p n sealed slots, oldest first. */
    FvBatchView viewTail(std::size_t n);

    /**
     * FeatureVector copies of the sealed slots, oldest first. With
     * @p ts, only the first slot whose [ts_begin, ts_end] contains it
     * (timestamps are compared before anything is materialized).
     */
    std::vector<FeatureVector>
    materialize(std::optional<Nanos> ts) const;

    /// @}

    /** The schema the columns follow. */
    const Schema &schema() const { return schema_; }
    /** Sealed-slot ring capacity (the registry window). */
    std::size_t window() const { return ring_.capacity(); }
    /** Floats per encoded row (columns of every MatrixView). */
    std::size_t floatCols() const { return float_cols_; }
    /** Float-plane row stride (floats between consecutive slots). */
    std::size_t floatStride() const { return float_stride_; }
    /** Total slots (window + 1 + slack). */
    std::size_t capacity() const { return capacity_; }
    /** Slots whose recycling is deferred behind a pinned view. */
    std::size_t retiredCount() const;

    /** Raw u64 address of (col, entry, slot) — alignment tests only. */
    const std::uint64_t *
    laneAddr(std::uint32_t col, std::uint32_t entry,
             std::uint32_t slot) const
    {
        return &plane_[cols_[col].base + entry * capacity_ + slot];
    }

  private:
    friend class FvBatchView;

    /** Per-column geometry: base u64 offset of lane 0 into plane_. */
    struct Column
    {
        std::size_t base;       //!< plane_ index of (lane 0, slot 0)
        std::size_t lane_off;   //!< offset into last_lanes_
        std::uint32_t entries;
    };

    enum class SlotState : std::uint8_t
    {
        Free,
        Open,
        Sealed,
        Retired, //!< recycled while pinned; freed at last unpin
    };

    SoaStore(Schema schema, std::size_t window, const SoaConfig &cfg,
             shm::ShmArena *arena);

    std::uint64_t lane(std::uint32_t col, std::uint32_t entry,
                       std::uint32_t slot) const
    {
        return plane_[cols_[col].base + entry * capacity_ + slot];
    }

    /** Live lane of column @p col: one cache line per column. */
    std::atomic_ref<std::uint64_t>
    liveLane(std::uint32_t col)
    {
        return std::atomic_ref<std::uint64_t>(
            live_[col * (base::kCacheLine / sizeof(std::uint64_t))]);
    }

    void
    markEver(std::uint32_t col)
    {
        std::atomic_ref<std::uint64_t> w(ever_[col >> 6]);
        std::uint64_t bit = 1ull << (col & 63);
        if (!(w.load(std::memory_order_relaxed) & bit))
            w.fetch_or(bit, std::memory_order_relaxed);
    }

    bool presentAt(std::uint32_t slot, std::uint32_t col) const
    {
        return (presence_[slot * words_ + (col >> 6)] >>
                (col & 63)) & 1u;
    }

    /** Writes floatCols() floats for @p row (encoder or default). */
    void encodeRow(const RowReader &row, float *out) const;
    void *carve(std::size_t bytes, shm::ShmOffset &off);
    void release(void *p, shm::ShmOffset off);
    void ensureFloatPlane();
    void claimLocked();
    void recycleLocked(std::uint32_t slot);
    void pinSlots(const std::vector<std::uint32_t> &slots);
    void unpinSlots(const std::vector<std::uint32_t> &slots);
    FeatureVector materializeSlot(std::uint32_t slot) const;

    Schema schema_;
    /** Backing arena; nullptr when the planes live on the heap. */
    shm::ShmArena *arena_;
    std::size_t capacity_;
    std::size_t words_;      //!< presence words per slot
    std::vector<Column> cols_;
    /** Column index → schema key (materialize's reverse mapping). */
    std::vector<std::uint64_t> keys_;

    shm::ShmOffset plane_off_ = shm::kNullOffset;
    std::uint64_t *plane_ = nullptr;

    std::size_t float_cols_;
    std::size_t float_stride_;
    FloatEncoder encoder_;
    shm::ShmOffset fplane_off_ = shm::kNullOffset;
    float *fplane_ = nullptr;

    /** The open vector: one u64 per column, each on its own cache
     *  line, never cleared. Relaxed-atomic: capture threads write it. */
    base::AlignedVec<std::uint64_t> live_;
    /** Ever-captured column bits (monotonic: captures are never
     *  cleared). Relaxed-atomic words: capture threads set them. */
    std::vector<std::uint64_t> ever_;

    /** Presence snapshot per sealed slot (capacity × words_). */
    std::vector<std::uint64_t> presence_;
    base::AlignedVec<Nanos> ts_begin_;
    base::AlignedVec<Nanos> ts_end_;

    /** Shadow of the newest sealed vector's lanes (Σ entries u64s):
     *  history inheritance never reads a slot that a window wrap might
     *  already have recycled. */
    std::vector<std::uint64_t> last_lanes_;
    std::vector<std::uint64_t> last_presence_;
    bool has_last_ = false;

    /** The slot the next seal fills; claimed by the previous seal so
     *  consecutive seals take consecutive slot ids. Owner-only. */
    std::uint32_t open_slot_ = 0;

    mutable std::mutex mu_; //!< guards ring_/free_/state_/pins_
    RingBuffer<std::uint32_t> ring_;
    std::vector<std::uint32_t> free_;
    std::vector<SlotState> state_;
    std::vector<std::uint32_t> pins_;
};

} // namespace lake::registry

#endif // LAKE_REGISTRY_SOA_H
