#ifndef LAKE_REGISTRY_SCORESERVER_H
#define LAKE_REGISTRY_SCORESERVER_H

/**
 * @file
 * The asynchronous batched scoring service (DESIGN.md §7).
 *
 * `Registry::scoreFeatures` is a synchronous, caller-blocking call: one
 * instrumentation site pays one classifier dispatch. The paper's
 * profitability policy (Fig. 3) only wins when dispatches are *batched*
 * past the crossover point, and its registries capture from many
 * threads — so the natural scale-out is a service that queues score
 * requests per registry, coalesces compatible requests across the
 * registries of one subsystem, and issues a single batched classifier
 * dispatch once a depth or deadline trigger fires (the same trigger
 * shape as the remoting pipeline's command batching).
 *
 * Contract summary (normative version in DESIGN.md §7):
 *
 *  - submit() never blocks on inference. It either enqueues and
 *    returns Ok, flushes inline when the coalesced depth reaches
 *    `max_batch` (the submitting thread performs the dispatch — there
 *    is no hidden service thread, mirroring how the remoting pipeline
 *    flushes on the issuing thread), or reports backpressure.
 *  - Queues are bounded per registry (`queue_capacity` vectors). A
 *    full queue either rejects the new request with
 *    Status::ResourceExhausted (default) or, with `shed_oldest`, drops
 *    the oldest queued requests — whose callbacks fire with
 *    ResourceExhausted — to make room.
 *  - Coalescing merges requests across registries of the *same
 *    subsystem*; the paper's case study gives every block device its
 *    own registry under one subsystem precisely because they share a
 *    model. The dispatching registry is the first (name-ordered)
 *    registry with queued work, and its execution policy — including
 *    a FallbackPolicy degradation guard — decides the engine with
 *    `batch_size` equal to the full coalesced depth.
 *  - Deadlines are virtual-time absolute. The service has no timer
 *    thread (virtual time does not advance by itself); the owner
 *    drives expiry via poll(now), exactly like the event loops that
 *    drive every other virtual-time component.
 *  - Callbacks run on the flushing thread, under the flush lock:
 *    per-registry FIFO order, registries of one flush in name order.
 *    A callback may submit() — a re-entrant submission that reaches
 *    max_batch does not flush inline; the flush loop already running
 *    on this thread picks it up before returning. A callback must not
 *    call poll()/flushAll()/destroy_registry (asserted: re-locking the
 *    non-recursive flush lock would deadlock).
 *  - One scoring path: a flush appends every request's rows, in
 *    request order, into one FvBatchView — vector requests as rows
 *    borrowed from one batch, view requests as their pinned slots —
 *    and calls Registry::scoreFeatures once. Each row's staged bytes
 *    count into reg_pack_bytes once.
 *  - Synchronous scoring coexists with the service: the Table 1
 *    `score_features` facade routes through scoreSync(), which takes
 *    the same flush lock, so registry policies and classifiers never
 *    see concurrent dispatch from the mixed sync/async paths either.
 */

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/time.h"
#include "policy/policy.h"
#include "registry/registry.h"

namespace lake::registry {

class RegistryManager;

/** Boot-time knobs of the scoring service (LakeConfig.scoring). */
struct ScoringConfig
{
    /** Master switch; the service is not constructed while false. */
    bool enabled = false;
    /** Pending vectors one registry's queue may hold. */
    std::size_t queue_capacity = 256;
    /** Coalesced vectors (per subsystem) that force an inline flush. */
    std::size_t max_batch = 32;
    /**
     * Default deadline slack: a submit() with deadline 0 is due at
     * `now + max_delay`. Mirrors the remote pipeline's flush quantum.
     */
    Nanos max_delay = 50_us;
    /**
     * Full-queue behaviour: false rejects the *new* request with
     * ResourceExhausted; true sheds the *oldest* queued requests
     * (their callbacks observe ResourceExhausted) to make room.
     */
    bool shed_oldest = false;

    /**
     * Applies LAKE_SCORE_MAX_BATCH / LAKE_SCORE_MAX_DELAY_US /
     * LAKE_SCORE_QUEUE_CAP / LAKE_SCORE_SHED environment overrides.
     * Explicit opt-in (benches call it); a default-constructed Lake
     * never reads the environment.
     */
    void applyEnv();
};

/** Outcome of one async score request, delivered to its callback. */
struct ScoreResult
{
    /** Ok, ResourceExhausted (shed), or Unavailable (teardown). */
    Status status;
    /** One score per submitted vector; empty unless Ok. */
    std::vector<float> scores;
    /** Virtual time the request entered the queue. */
    Nanos enqueued = 0;
    /** Virtual time the batch was scored (== enqueued on failure). */
    Nanos scored = 0;
    /** Engine that scored the coalesced batch. */
    policy::Engine engine = policy::Engine::Cpu;
    /** Coalesced batch size this request rode in (0 on failure). */
    std::size_t batch = 0;
};

/** Completion callback; see the threading contract above. */
using ScoreCallback = std::function<void(const ScoreResult &)>;

/**
 * Asynchronous batched inference over a RegistryManager.
 *
 * Thread-safe: submit() may be called from any thread; poll() /
 * flushAll() / failPending() may race submissions. Flushes themselves
 * are serialized, so registry policies and classifiers never see
 * concurrent dispatch.
 */
class ScoreServer
{
  public:
    /**
     * @param mgr   registry owner; must outlive the server
     * @param clock virtual clock stamping enqueue/score times
     * @param cfg   knobs (enabled flag is ignored here — constructing
     *              the server *is* enabling it)
     */
    ScoreServer(RegistryManager &mgr, Clock &clock, ScoringConfig cfg);

    /** Drains every queue (one final flush per subsystem). */
    ~ScoreServer();

    ScoreServer(const ScoreServer &) = delete;
    ScoreServer &operator=(const ScoreServer &) = delete;

    /**
     * Queues @p fvs for batched scoring on registry @p name / @p sys.
     *
     * Non-blocking admission: returns InvalidArgument for an empty
     * batch, an unknown registry, or a registry with no CPU
     * classifier; ResourceExhausted when the registry's queue is full
     * (after shedding, if configured). On Ok the callback will fire
     * exactly once, from a later flush, which borrows the vectors
     * into its batch view.
     *
     * @param deadline absolute virtual-time flush deadline; 0 means
     *        "now + max_delay"
     */
    Status submit(const std::string &name, const std::string &sys,
                  std::vector<FeatureVector> fvs, Nanos deadline,
                  ScoreCallback cb);

    /**
     * Queues a pinned batch view for batched scoring — the zero-copy
     * fast path. Same admission/coalescing/deadline contract as
     * submit(); the flush appends the view's slots to its combined
     * view (no gather, no pack). The view's slots stay pinned until
     * its request completes (scored, shed, or failed).
     */
    Status submitView(const std::string &name, const std::string &sys,
                      FvBatchView view, Nanos deadline, ScoreCallback cb);

    /**
     * Flushes every subsystem whose deadline has passed (or whose
     * depth reached max_batch while a flush was already running).
     * @return coalesced batches dispatched
     */
    std::size_t poll(Nanos now);

    /** Flushes everything pending (sync points, shutdown). */
    std::size_t flushAll(Nanos now);

    /**
     * Fails every queued request of one registry with Unavailable —
     * the manager calls this after unlinking the registry from the
     * table (so no new submission can enqueue behind the drain) but
     * before freeing it (so an in-flight flush finishes first).
     */
    void failPending(const std::string &name, const std::string &sys);

    /**
     * Synchronous scoring serialized against async flushes: takes the
     * flush lock (unless already held by this thread's flush, i.e.
     * called from a score callback) and dispatches @p view through
     * @p reg. The `score_features` facade routes here while the
     * service is enabled so sync and async dispatch never race.
     */
    std::vector<float> scoreSync(Registry &reg, const FvBatchView &view,
                                 Nanos now);

    /** Caller-built vectors: scoreSync over @p fvs borrowed as a view. */
    std::vector<float> scoreSync(Registry &reg,
                                 const std::vector<FeatureVector> &fvs,
                                 Nanos now);

    /// @name Introspection (exact under quiescence)
    /// @{
    std::uint64_t submitted() const { return submitted_.load(std::memory_order_relaxed); }
    std::uint64_t flushes() const { return flushes_.load(std::memory_order_relaxed); }
    std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
    std::uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
    /** Vectors currently queued across all registries. */
    std::size_t pending() const;
    /// @}

    /** Knobs in force. */
    const ScoringConfig &config() const { return cfg_; }

  private:
    /** One queued submit() / submitView(). */
    struct Request
    {
        Registry *reg = nullptr;
        /** submit()'s vectors: only storage until the flush borrows
         *  them; empty for submitView(). */
        std::vector<FeatureVector> fvs = {};
        /** submitView()'s pinned view; empty for submit(). Dropping
         *  the request — shed, teardown — unpins it via its dtor. */
        FvBatchView view = {};
        Nanos enqueued = 0;
        /** Absolute flush deadline, kept so shedding/teardown can
         *  recompute the group's earliest deadline from survivors. */
        Nanos deadline = 0;
        ScoreCallback cb = {};

        /** Vectors this request contributes to depth accounting. */
        std::size_t size() const { return fvs.size() + view.size(); }
    };

    /** One registry's FIFO queue, with its depth maintained inline so
     *  admission control is O(1) rather than a walk of the queue. */
    struct RegQueue
    {
        std::deque<Request> q;
        /** Pending vectors in q. */
        std::size_t depth = 0;
    };

    /** Pending work for one subsystem (the coalescing unit). */
    struct Group
    {
        /** Per-registry FIFO queues, name-ordered for determinism. */
        std::map<std::string, RegQueue> queues;
        /** Pending vectors across the queues. */
        std::size_t depth = 0;
        /** Earliest deadline among pending requests; 0 when empty. */
        Nanos due = 0;
    };

    /** Shared admission and enqueue behind submit()/submitView(). */
    Status submitImpl(const std::string &name, const std::string &sys,
                      Request req, Nanos deadline, ScoreCallback cb);

    /** Pops every pending request of @p g, oldest-deadline bookkeeping reset. */
    std::vector<Request> drainGroupLocked(Group &g);

    /** Earliest deadline among @p g's surviving requests; 0 if none. */
    static Nanos minDueLocked(const Group &g);

    /** Scores one coalesced batch with one Registry::scoreFeatures
     *  call and scatters the scores; caller holds flush_mu_ only. */
    void dispatch(std::vector<Request> reqs, Nanos now);

    /** Flushes subsystems selected by @p due_only; see poll/flushAll. */
    std::size_t flushWhere(Nanos now, bool due_only);

    void updateDepthGauge(std::size_t total) const;

    RegistryManager &mgr_;
    Clock &clock_;
    ScoringConfig cfg_;

    mutable std::mutex mu_;        //!< guards groups_ / pending_
    std::map<std::string, Group> groups_;
    std::size_t pending_ = 0;      //!< total queued vectors

    /** Serializes dispatch: policies/classifiers never run twice at once. */
    std::mutex flush_mu_;

    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> flushes_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> rejected_{0};
};

} // namespace lake::registry

#endif // LAKE_REGISTRY_SCORESERVER_H
