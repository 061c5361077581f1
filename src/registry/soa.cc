#include "registry/soa.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "base/env.h"
#include "base/logging.h"
#include "registry/registry.h"

namespace lake::registry {

namespace {

/** Rounds a u64 count up to a whole number of cache lines. */
std::size_t
roundUpLanes(std::size_t u64s)
{
    constexpr std::size_t per_line = base::kCacheLine / sizeof(std::uint64_t);
    return (u64s + per_line - 1) / per_line * per_line;
}

/** Rounds a float count up to a whole number of cache lines: the
 *  float-plane row stride, dense enough that a batch window stays
 *  cache-resident under the strided GEMM. */
std::size_t
roundUpFloats(std::size_t floats)
{
    constexpr std::size_t per_line = base::kCacheLine / sizeof(float);
    return (floats + per_line - 1) / per_line * per_line;
}

} // namespace

void
SoaConfig::applyEnv()
{
    slack = base::envCount("LAKE_SOA_SLACK", slack);
}

// ---------------------------------------------------------------------------
// SoaStore

SoaStore::SoaStore(Schema schema, std::size_t window, const SoaConfig &cfg,
                   shm::ShmArena *arena)
    : schema_(std::move(schema)), arena_(arena),
      capacity_(window + 1 + cfg.slack),
      words_((schema_.featureCount() + 63) / 64),
      float_cols_(schema_.featureCount()),
      float_stride_(roundUpFloats(schema_.featureCount())),
      ring_(window)
{
    LAKE_ASSERT(schema_.featureCount() > 0, "soa store on empty schema");

    // Column layout: per feature, entries lanes of capacity u64s, the
    // whole region padded to cache-line multiples so concurrent writers
    // of different columns never share a line (arena and heap blocks
    // alike start on a cache line).
    std::size_t total = 0, lane_total = 0;
    cols_.reserve(schema_.featureCount());
    keys_.reserve(schema_.featureCount());
    for (const FeatureSpec &spec : schema_.features()) {
        cols_.push_back(Column{total, lane_total, spec.entries});
        keys_.push_back(featureKey(spec.name));
        total += roundUpLanes(static_cast<std::size_t>(spec.entries) *
                              capacity_);
        lane_total += spec.entries;
    }

    plane_ = static_cast<std::uint64_t *>(
        carve(total * sizeof(std::uint64_t), plane_off_));
    if (plane_ == nullptr)
        return; // create() reports exhaustion via nullptr
    std::memset(plane_, 0, total * sizeof(std::uint64_t));

    live_.assign(cols_.size() * (base::kCacheLine / sizeof(std::uint64_t)),
                 0);
    ever_.assign(words_, 0);
    presence_.assign(capacity_ * words_, 0);
    ts_begin_.assign(capacity_, 0);
    ts_end_.assign(capacity_, 0);
    last_lanes_.assign(lane_total, 0);
    last_presence_.assign(words_, 0);
    state_.assign(capacity_, SlotState::Free);
    pins_.assign(capacity_, 0);

    // Descending free stack: pop_back claims ascending slot ids, so
    // steady-state seals produce consecutive slots (one MatrixView run).
    free_.reserve(capacity_);
    for (std::size_t s = capacity_; s-- > 0;)
        free_.push_back(static_cast<std::uint32_t>(s));

    std::lock_guard<std::mutex> lock(mu_);
    claimLocked();
}

SoaStore::~SoaStore()
{
    release(plane_, plane_off_);
    release(fplane_, fplane_off_);
}

std::unique_ptr<SoaStore>
SoaStore::create(Schema schema, std::size_t window, const SoaConfig &cfg,
                 shm::ShmArena *arena)
{
    std::unique_ptr<SoaStore> store(
        new SoaStore(std::move(schema), window, cfg, arena));
    if (store->plane_ == nullptr)
        return nullptr;
    return store;
}

void *
SoaStore::carve(std::size_t bytes, shm::ShmOffset &off)
{
    if (arena_ == nullptr)
        return ::operator new(bytes, std::align_val_t(base::kCacheLine));
    off = arena_->alloc(bytes);
    return off == shm::kNullOffset ? nullptr : arena_->at(off);
}

void
SoaStore::release(void *p, shm::ShmOffset off)
{
    if (p == nullptr)
        return;
    if (arena_ == nullptr)
        ::operator delete(p, std::align_val_t(base::kCacheLine));
    else
        arena_->free(off);
}

void
SoaStore::setFloatEncoder(std::size_t float_cols, FloatEncoder fn)
{
    LAKE_ASSERT(fplane_ == nullptr && !has_last_,
                "setFloatEncoder after the first seal");
    if (float_cols > 0) {
        float_cols_ = float_cols;
        float_stride_ = roundUpFloats(float_cols);
    }
    encoder_ = std::move(fn);
}

void
SoaStore::ensureFloatPlane()
{
    if (fplane_ != nullptr)
        return;
    fplane_ = static_cast<float *>(
        carve(capacity_ * float_stride_ * sizeof(float), fplane_off_));
    LAKE_ASSERT(fplane_ != nullptr,
                "lakeShm exhausted carving the soa float plane");
    std::memset(fplane_, 0, capacity_ * float_stride_ * sizeof(float));
}

std::uint64_t
SoaStore::RowReader::value(std::uint32_t col, std::uint32_t entry) const
{
    LAKE_ASSERT(col < store_->cols_.size() &&
                    entry < store_->cols_[col].entries,
                "row reader (%u, %u) out of schema range", col, entry);
    if (fv_ != nullptr) {
        auto it = fv_->values.find(store_->keys_[col]);
        if (it == fv_->values.end() || entry >= it->second.size())
            return 0;
        return it->second[entry];
    }
    if (!store_->presentAt(slot_, col))
        return 0;
    return store_->lane(col, entry, slot_);
}

void
SoaStore::encodeRow(const RowReader &row, float *out) const
{
    if (encoder_) {
        encoder_(row, out);
        return;
    }
    for (std::size_t c = 0; c < float_cols_; ++c)
        out[c] = static_cast<float>(
            row.value(static_cast<std::uint32_t>(c), 0));
}

std::size_t
SoaStore::seal(Nanos ts_begin, Nanos ts_end)
{
    const std::uint32_t s = open_slot_;

    // Presence snapshot: the ever-captured set at seal time (captures
    // are never cleared, so presence is monotone).
    for (std::size_t w = 0; w < words_; ++w) {
        std::atomic_ref<std::uint64_t> ev(ever_[w]);
        presence_[s * words_ + w] = ev.load(std::memory_order_relaxed);
    }

    // Lane 0 of every present column is the open vector's live value;
    // history lanes inherit from the shadow of the previous sealed
    // vector (never from a slot a window wrap may have recycled):
    // previous entry i becomes entry i+1.
    std::size_t fv_len = 0;
    for (std::uint32_t c = 0; c < cols_.size(); ++c) {
        if (!presentAt(s, c))
            continue;
        ++fv_len;
        const Column &col = cols_[c];
        plane_[col.base + s] = liveLane(c).load(std::memory_order_relaxed);
        bool prev_present =
            has_last_ && ((last_presence_[c >> 6] >> (c & 63)) & 1u);
        for (std::uint32_t i = col.entries; i-- > 1;) {
            plane_[col.base + i * capacity_ + s] =
                prev_present ? last_lanes_[col.lane_off + (i - 1)] : 0;
        }
    }
    ts_begin_[s] = ts_begin;
    ts_end_[s] = ts_end;

    // Encode the float row once, at seal: score time is pure view
    // consumption (zero bytes moved per scored vector).
    ensureFloatPlane();
    encodeRow(RowReader(this, s),
              fplane_ + static_cast<std::size_t>(s) * float_stride_);

    // Refresh the shadow from the just-sealed lanes.
    for (std::size_t c = 0; c < cols_.size(); ++c) {
        if (!presentAt(s, static_cast<std::uint32_t>(c)))
            continue;
        const Column &col = cols_[c];
        for (std::uint32_t i = 0; i < col.entries; ++i)
            last_lanes_[col.lane_off + i] =
                plane_[col.base + i * capacity_ + s];
    }
    std::memcpy(last_presence_.data(), presence_.data() + s * words_,
                words_ * sizeof(std::uint64_t));
    has_last_ = true;

    std::lock_guard<std::mutex> lock(mu_);
    state_[s] = SlotState::Sealed;
    if (ring_.full())
        recycleLocked(ring_.pop()); // window wrap: recycle the oldest
    ring_.push(s);
    claimLocked();
    return fv_len;
}

void
SoaStore::claimLocked()
{
    LAKE_ASSERT(!free_.empty(),
                "soa slot pool exhausted (%zu slots): every spare slot "
                "is pinned by an in-flight batch view — raise "
                "SoaConfig.slack / LAKE_SOA_SLACK",
                capacity_);
    open_slot_ = free_.back();
    free_.pop_back();
    state_[open_slot_] = SlotState::Open;
}

void
SoaStore::recycleLocked(std::uint32_t slot)
{
    if (pins_[slot] > 0) {
        // An in-flight batch view still reads these bytes: defer the
        // recycle until the last unpin so the view never sees a rewrite.
        state_[slot] = SlotState::Retired;
        return;
    }
    state_[slot] = SlotState::Free;
    free_.push_back(slot);
}

void
SoaStore::truncate(std::optional<Nanos> ts, std::size_t keep_newest)
{
    std::lock_guard<std::mutex> lock(mu_);
    while (ring_.size() > keep_newest) {
        std::uint32_t oldest = ring_.front();
        if (ts.has_value() && ts_end_[oldest] >= *ts)
            break;
        ring_.pop();
        recycleLocked(oldest);
    }
}

std::size_t
SoaStore::sealedCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
}

std::size_t
SoaStore::retiredCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (SlotState s : state_)
        n += s == SlotState::Retired ? 1 : 0;
    return n;
}

FvBatchView
SoaStore::viewTail(std::size_t n)
{
    FvBatchView v;
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t have = ring_.size();
    std::size_t take = std::min(n, have);
    if (take == 0)
        return v;
    std::vector<std::uint32_t> slots;
    slots.reserve(take);
    for (std::size_t i = have - take; i < have; ++i) {
        std::uint32_t s = ring_.at(i);
        ++pins_[s];
        slots.push_back(s);
    }
    v.pushBlock({.store = this, .rows = std::move(slots)});
    return v;
}

std::vector<FeatureVector>
SoaStore::materialize(std::optional<Nanos> ts) const
{
    std::vector<FeatureVector> out;
    std::lock_guard<std::mutex> lock(mu_);
    if (!ts.has_value()) {
        out.reserve(ring_.size());
        for (std::size_t i = 0; i < ring_.size(); ++i)
            out.push_back(materializeSlot(ring_.at(i)));
        return out;
    }
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        std::uint32_t s = ring_.at(i);
        if (ts_begin_[s] <= *ts && *ts <= ts_end_[s]) {
            out.push_back(materializeSlot(s));
            break;
        }
    }
    return out;
}

FeatureVector
SoaStore::materializeSlot(std::uint32_t slot) const
{
    FeatureVector fv;
    fv.ts_begin = ts_begin_[slot];
    fv.ts_end = ts_end_[slot];
    for (std::size_t c = 0; c < cols_.size(); ++c) {
        if (!presentAt(slot, static_cast<std::uint32_t>(c)))
            continue;
        const Column &col = cols_[c];
        std::vector<std::uint64_t> entries(col.entries, 0);
        for (std::uint32_t i = 0; i < col.entries; ++i)
            entries[i] = plane_[col.base + i * capacity_ + slot];
        fv.values.emplace(keys_[c], std::move(entries));
    }
    return fv;
}

void
SoaStore::pinSlots(const std::vector<std::uint32_t> &slots)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::uint32_t s : slots)
        ++pins_[s];
}

void
SoaStore::unpinSlots(const std::vector<std::uint32_t> &slots)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::uint32_t s : slots) {
        LAKE_ASSERT(pins_[s] > 0, "unpin of unpinned soa slot %u", s);
        if (--pins_[s] == 0 && state_[s] == SlotState::Retired) {
            state_[s] = SlotState::Free;
            free_.push_back(s);
        }
    }
}

// ---------------------------------------------------------------------------
// FvBatchView

FvBatchView::~FvBatchView()
{
    release();
}

FvBatchView &
FvBatchView::operator=(FvBatchView &&other) noexcept
{
    if (this != &other) {
        release();
        blocks_ = std::move(other.blocks_);
        rows_ = other.rows_;
        other.blocks_.clear();
        other.rows_ = 0;
    }
    return *this;
}

void
FvBatchView::release()
{
    for (Block &b : blocks_)
        if (b.fvs == nullptr)
            b.store->unpinSlots(b.rows);
}

FvBatchView
FvBatchView::borrow(SoaStore &store, const std::vector<FeatureVector> &fvs,
                    std::size_t first, std::size_t n)
{
    FvBatchView v;
    v.appendBorrowed(store, fvs, first, n);
    return v;
}

void
FvBatchView::appendBorrowed(SoaStore &store,
                            const std::vector<FeatureVector> &fvs,
                            std::size_t first, std::size_t n)
{
    LAKE_ASSERT(first + n <= fvs.size(),
                "borrowed rows [%zu, %zu) past a %zu-vector batch", first,
                first + n, fvs.size());
    if (n == 0)
        return;
    Block &b = openBlock(&store, &fvs);
    for (std::size_t i = first; i < first + n; ++i)
        b.rows.push_back(static_cast<std::uint32_t>(i));
    rows_ += n;
}

void
FvBatchView::recycle()
{
    release();
    for (Block &b : blocks_) {
        b.rows.clear();
        b.floats.clear();
        spare_.push_back(std::move(b));
    }
    blocks_.clear();
    rows_ = 0;
}

const std::vector<FeatureVector> *
FvBatchView::wholeBorrowed() const
{
    if (blocks_.size() != 1 || blocks_[0].fvs == nullptr ||
        rows_ != blocks_[0].fvs->size())
        return nullptr;
    for (std::size_t i = 0; i < rows_; ++i)
        if (blocks_[0].rows[i] != i)
            return nullptr;
    return blocks_[0].fvs;
}

void
FvBatchView::pushBlock(Block b)
{
    rows_ += b.rows.size();
    Block &dst = openBlock(b.store, b.fvs);
    // A new block with no recycled storage to fill adopts b's rows.
    if (dst.rows.empty() && dst.rows.capacity() < b.rows.size())
        dst.rows = std::move(b.rows);
    else
        dst.rows.insert(dst.rows.end(), b.rows.begin(), b.rows.end());
}

FvBatchView::Block &
FvBatchView::openBlock(SoaStore *store,
                       const std::vector<FeatureVector> *fvs)
{
    // Merge same-source blocks so consecutive slots sealed across
    // requests still coalesce into one MatrixView run, and adjacent
    // borrowed ranges stay one block (an all-vector flush is one whole
    // borrowed vector).
    if (!blocks_.empty() && blocks_.back().store == store &&
        blocks_.back().fvs == fvs) {
        blocks_.back().floats.clear();
        return blocks_.back();
    }
    if (spare_.empty()) {
        blocks_.emplace_back();
    } else {
        blocks_.push_back(std::move(spare_.back()));
        spare_.pop_back();
    }
    Block &b = blocks_.back();
    b.store = store;
    b.fvs = fvs;
    return b;
}

const FvBatchView::Block &
FvBatchView::blockOf(std::size_t row, std::size_t *idx) const
{
    LAKE_ASSERT(row < rows_, "view row %zu out of range", row);
    for (const Block &b : blocks_) {
        if (row < b.rows.size()) {
            *idx = b.rows[row];
            return b;
        }
        row -= b.rows.size();
    }
    fatal("batch view row accounting corrupt");
}

Nanos
FvBatchView::tsBegin(std::size_t row) const
{
    std::size_t i;
    const Block &b = blockOf(row, &i);
    return b.fvs ? (*b.fvs)[i].ts_begin : b.store->ts_begin_[i];
}

Nanos
FvBatchView::tsEnd(std::size_t row) const
{
    std::size_t i;
    const Block &b = blockOf(row, &i);
    return b.fvs ? (*b.fvs)[i].ts_end : b.store->ts_end_[i];
}

std::uint64_t
FvBatchView::get(std::size_t row, std::uint64_t key) const
{
    std::size_t i;
    std::uint32_t col = blockOf(row, &i).store->schema_.columnOf(key);
    if (col == Schema::kNoColumn)
        return 0;
    return value(row, col, 0);
}

std::uint64_t
FvBatchView::value(std::size_t row, std::uint32_t col,
                   std::uint32_t entry) const
{
    std::size_t i;
    const Block &b = blockOf(row, &i);
    if (b.fvs != nullptr)
        return SoaStore::RowReader(b.store, &(*b.fvs)[i]).value(col, entry);
    return SoaStore::RowReader(b.store, static_cast<std::uint32_t>(i))
        .value(col, entry);
}

std::vector<ml::MatrixView>
FvBatchView::matrixViews() const
{
    std::vector<ml::MatrixView> out;
    for (const Block &b : blocks_) {
        const SoaStore *st = b.store;
        if (b.fvs != nullptr) {
            // Borrowed rows have no float plane: encode them densely,
            // once, with the encoder a seal would run.
            const std::size_t cols = st->float_cols_;
            if (b.floats.empty()) {
                b.floats.assign(b.rows.size() * cols, 0.0f);
                for (std::size_t r = 0; r < b.rows.size(); ++r)
                    st->encodeRow(
                        SoaStore::RowReader(st, &(*b.fvs)[b.rows[r]]),
                        b.floats.data() + r * cols);
            }
            out.emplace_back(b.floats.data(), b.rows.size(), cols, cols);
            continue;
        }
        if (st->fplane_ == nullptr || b.rows.empty())
            continue;
        // Maximal runs of consecutive slot ids share one uniform row
        // stride: each run is one strided window, zero bytes gathered.
        std::size_t run_start = 0;
        for (std::size_t i = 1; i <= b.rows.size(); ++i) {
            if (i < b.rows.size() && b.rows[i] == b.rows[i - 1] + 1)
                continue;
            out.emplace_back(
                st->fplane_ +
                    static_cast<std::size_t>(b.rows[run_start]) *
                        st->float_stride_,
                i - run_start, st->float_cols_, st->float_stride_);
            run_start = i;
        }
    }
    return out;
}

void
FvBatchView::append(FvBatchView other)
{
    for (Block &b : other.blocks_)
        pushBlock(std::move(b));
    other.blocks_.clear(); // pins transferred, not released
    other.rows_ = 0;
}

std::vector<FeatureVector>
FvBatchView::materialize() const
{
    std::vector<FeatureVector> out;
    out.reserve(rows_);
    for (const Block &b : blocks_)
        for (std::uint32_t i : b.rows)
            out.push_back(b.fvs ? (*b.fvs)[i]
                                : b.store->materializeSlot(i));
    return out;
}

std::size_t
FvBatchView::packBytesAvoided() const
{
    return packBytes(true) + packBytes(false);
}

std::size_t
FvBatchView::packBytes(bool borrowed) const
{
    std::size_t bytes = 0;
    for (const Block &b : blocks_) {
        if ((b.fvs != nullptr) != borrowed)
            continue;
        for (std::uint32_t i : b.rows) {
            if (borrowed) {
                for (const auto &[key, entries] : (*b.fvs)[i].values)
                    bytes += entries.size() * sizeof(std::uint64_t);
                continue;
            }
            for (std::size_t c = 0; c < b.store->cols_.size(); ++c)
                if (b.store->presentAt(i, static_cast<std::uint32_t>(c)))
                    bytes += b.store->cols_[c].entries *
                             sizeof(std::uint64_t);
        }
    }
    return bytes;
}

} // namespace lake::registry
