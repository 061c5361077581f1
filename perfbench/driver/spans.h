#ifndef LAKE_PERFBENCH_SPANS_H
#define LAKE_PERFBENCH_SPANS_H

/**
 * @file
 * Out-of-library span tracing for the LAKE benchmark.
 *
 * Every span wraps one public call the benchmark driver makes into a
 * library module, or one callback the driver registered with the
 * library (classifier, execution policy, cipher engine). Self time of a
 * span is its duration minus the time its child spans cover; a layer's
 * self time is the sum over its span kinds. Driver code that is not
 * inside any library call lands in the `bench` layer, which is what
 * `bench.unattributed_host_share` reports.
 *
 * Self time is accumulated online for every span, so the per-layer
 * budget covers the whole timed phase; full span records (name, start,
 * end, parent, request id) are kept in memory only up to a cap and
 * written out once the benchmark ends.
 *
 * A null Tracer pointer is the untraced mode: Span is then one branch.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/time.h"

namespace lake::perfbench {

/** Modules spans are attributed to (named after src/ directories). */
enum class Layer : std::uint8_t
{
    Bench, //!< the driver's own code between library calls
    Storage,
    Sim,
    Registry,
    Policy,
    Serve,
    Ml,
    Remote,
    Crypto,
    Fs,
    Count,
};

/** Every span kind the driver records; each belongs to one layer. */
enum class Kind : std::uint16_t
{
    Timed,          //!< root: the whole timed phase (bench)
    Event,          //!< one simulator event callback body (bench)
    Classifier,     //!< a registered classifier callback body (bench)
    StorageSubmit,  //!< NvmeDevice::submit
    SimRun,         //!< Simulator::run
    RegCapture,     //!< CaptureHandle::captureFeatureCol (per I/O)
    RegCommit,      //!< Registry::commitFvCapture
    RegRead,        //!< Registry::getFeatures
    RegScore,       //!< Registry::scoreFeatures
    RegTruncate,    //!< Registry::truncateFeatures
    PolicyDecide,   //!< ExecPolicy::decide (registered policy)
    ServeOffer,     //!< TrafficGenerator::offer
    ServePump,      //!< TrafficGenerator::pump
    ServeDrain,     //!< ScoreServer::flushAll at the end of a phase
    MlFeaturize,    //!< LinnOS feature encoding of one batch
    MlCpuClassify,  //!< CpuMlp::classify
    MlGpuClassify,  //!< LakeMlp::tryClassify
    RemoteRoute,    //!< FleetRouter bookkeeping + LakeShard::activate
    CryptoEncrypt,  //!< CipherEngine::encryptExtent (registered engine)
    CryptoDecrypt,  //!< CipherEngine::decryptExtent
    FsWrite,        //!< ECryptFs::writeFile
    FsRead,         //!< ECryptFs::readFile
    Count,
};

/** Printable span name, e.g. "registry.score". */
const char *kindName(Kind k);
/** Layer a span kind belongs to. */
Layer kindLayer(Kind k);
/** Printable layer name, e.g. "registry". */
const char *layerName(Layer l);

/** Aggregate of every span of one kind. */
struct KindStat
{
    std::uint64_t count = 0;
    std::int64_t total_host = 0; //!< host ns inside these spans
    std::int64_t self_host = 0;  //!< minus child spans
    Nanos total_v = 0;           //!< virtual ns inside these spans
    Nanos self_v = 0;
    std::uint64_t vec = 0;       //!< vectors handled (classify spans)
};

/**
 * The in-memory span recorder. Single-threaded: every span opens and
 * closes on the driver thread (the library's compute pool runs inside
 * spans, never around them).
 */
class Tracer
{
  public:
    /** @param keep how many full span records to keep for the dump */
    explicit Tracer(std::size_t keep);

    /**
     * Installs the workload's virtual clock (the sum of the clocks it
     * charges, so a span's virtual duration is the time charged inside
     * it; a sum of monotone clocks never moves back). Null: spans carry
     * host time only.
     */
    void setVirtualClock(std::function<Nanos()> vnow);

    void begin(Kind k, std::uint32_t req);
    void end();

    /** Adds @p n vectors to the innermost open span's kind. */
    void addVectors(std::size_t n);

    const KindStat &stat(Kind k) const
    {
        return stats_[static_cast<std::size_t>(k)];
    }

    /** Self host ns of every span kind of layer @p l. */
    std::int64_t layerSelfHost(Layer l) const;
    /** Self virtual ns of every span kind of layer @p l. */
    Nanos layerSelfV(Layer l) const;

    /** Writes the kept span records as CSV. @return false on I/O error. */
    bool writeCsv(const std::string &path) const;

  private:
    struct Open
    {
        Kind kind;
        std::uint32_t kept; //!< index into kept_, or kNone
        std::int64_t h0;
        Nanos v0;
        std::int64_t child_host = 0;
        Nanos child_v = 0;
    };
    struct Record
    {
        Kind kind;
        std::uint32_t req;
        std::uint32_t parent;
        std::int64_t h0, h1;
        Nanos v0, v1;
    };
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    static std::int64_t
    hostNow()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::function<Nanos()> vnow_;
    std::size_t keep_;
    std::int64_t epoch_;
    std::vector<Open> stack_;
    std::vector<Record> kept_;
    KindStat stats_[static_cast<std::size_t>(Kind::Count)];
};

/** RAII span; a no-op when @p t is null (the untraced mode). */
class Span
{
  public:
    Span(Tracer *t, Kind k, std::uint32_t req = 0) : t_(t)
    {
        if (t_)
            t_->begin(k, req);
    }
    ~Span()
    {
        if (t_)
            t_->end();
    }

    /** Counts @p n vectors handled inside this span. */
    void
    vectors(std::size_t n)
    {
        if (t_)
            t_->addVectors(n);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
};

/** Host seconds since an arbitrary epoch (steady clock). */
double hostSeconds();

} // namespace lake::perfbench

#endif // LAKE_PERFBENCH_SPANS_H
