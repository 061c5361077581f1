// ecryptfs_bulk: §7.7 Fig. 14. One caller (closed loop) writes a set of
// seeded files through fs::ECryptFs with crypto::LakeGpuCipher at
// 256 KiB extents, past the LAKE/AES-NI crossover, then reads every
// file back. The data crosses the same remoting layer as the fleet's
// commands, but as few large lakeShm transfers. File sizes are drawn
// from the seed, so partial extents and per-file latency vary with it.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/stats.h"
#include "core/lake.h"
#include "crypto/engines.h"
#include "fs/ecryptfs.h"
#include "obs/metrics.h"
#include "traced_policy.h"
#include "workload.h"

namespace lake::perfbench {

namespace {

class EcryptfsBulk final : public Workload
{
  public:
    explicit EcryptfsBulk(const Params &p) : p_(p) {}

    RepOutput rep(std::uint64_t seed, Tracer *tr) override;

  private:
    Params p_;
};

RepOutput
EcryptfsBulk::rep(std::uint64_t seed, Tracer *tr)
{
    RepOutput out;
    const std::size_t extent = p_.count("extent_kib") << 10;
    const std::size_t files = p_.count("files");

    // ---- set-up: inputs, boot, cipher --------------------------------
    double t_setup = hostSeconds();
    Rng rng(seed);
    std::uint8_t key[32];
    for (std::uint8_t &b : key)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    std::vector<std::vector<std::uint8_t>> data(files);
    for (std::vector<std::uint8_t> &f : data) {
        std::size_t pages = static_cast<std::size_t>(rng.uniformInt(
            p_.u64("file_kib_lo") / 4, p_.u64("file_kib_hi") / 4));
        f.resize(pages << 12);
        for (std::size_t i = 0; i < f.size(); i += 8) {
            std::uint64_t w = rng.uniformInt(0, ~std::uint64_t{0});
            std::memcpy(f.data() + i, &w, 8);
        }
    }

    double t_boot = hostSeconds();
    core::LakeConfig cfg;
    cfg.obs.metrics = tr != nullptr;
    core::Lake lake(cfg);
    double boot_s = hostSeconds() - t_boot;
    if (tr)
        tr->setVirtualClock([&lake] { return lake.clock().now(); });
    double t_cipher = hostSeconds();
    crypto::LakeGpuCipher gpu(key, sizeof(key), lake.lib(), extent);
    double cipher_s = hostSeconds() - t_cipher;
    TracedCipher cipher(gpu, tr);
    fs::ECryptFs fs(cipher, lake.clock(), fs::LowerFsModel::testbed(),
                    extent);
    out.setup_s = hostSeconds() - t_setup;
    out.layer["core.boot_host_ms"] = boot_s * 1e3;
    out.layer["core.model_setup_host_ms"] = cipher_s * 1e3;

    // ---- timed phase: write every file, then read every file back ----
    PercentileTracker lat_us;
    Nanos write_v = 0, read_v = 0;
    std::uint64_t bytes = 0;
    std::vector<Result<std::vector<std::uint8_t>>> back;
    back.reserve(files);
    std::vector<Status> wrote;
    const std::uint64_t allocs0 = obs::Metrics::global().shm_allocs.get();
    const Nanos v_start = lake.clock().now();
    double t_run = hostSeconds();
    {
        Span root(tr, Kind::Timed);
        for (std::size_t i = 0; i < files; ++i) {
            Nanos t0 = lake.clock().now();
            {
                Span s(tr, Kind::FsWrite, static_cast<std::uint32_t>(i));
                wrote.push_back(fs.writeFile("/f" + std::to_string(i),
                                             data[i].data(), data[i].size()));
            }
            Nanos dt = lake.clock().now() - t0;
            write_v += dt;
            lat_us.add(toUs(dt));
            out.lat_us.push_back(toUs(dt));
            bytes += data[i].size();
        }
        for (std::size_t i = 0; i < files; ++i) {
            Nanos t0 = lake.clock().now();
            {
                Span s(tr, Kind::FsRead, static_cast<std::uint32_t>(i));
                back.push_back(fs.readFile("/f" + std::to_string(i)));
            }
            Nanos dt = lake.clock().now() - t0;
            read_v += dt;
            lat_us.add(toUs(dt));
            out.lat_us.push_back(toUs(dt));
        }
    }
    out.timed_s = hostSeconds() - t_run;
    const Nanos v_total = lake.clock().now() - v_start;
    const std::uint64_t allocs =
        obs::Metrics::global().shm_allocs.get() - allocs0;

    // ---- output checks: read-back equals written, every tag verifies -
    const fs::ECryptFsStats &st = fs.stats();
    const double extents =
        static_cast<double>(st.extents_written + st.extents_read);
    out.ops = extents;
    out.attempted = st.extents_written + st.extents_read;
    for (std::size_t i = 0; i < files; ++i) {
        std::uint64_t file_extents = (data[i].size() + extent - 1) / extent;
        bool ok = wrote[i].isOk() && back[i].isOk() &&
                  back[i].value() == data[i];
        if (!ok) {
            out.failed += 2 * file_extents;
            out.errors.push_back("ecryptfs_bulk: file " + std::to_string(i) +
                                 " did not read back as written");
        }
    }
    if (cipher.authFailures() != 0)
        out.errors.push_back("ecryptfs_bulk: extents failed authentication");
    if (cipher.extents() != out.attempted)
        out.errors.push_back("ecryptfs_bulk: cipher saw " +
                             std::to_string(cipher.extents()) + " of " +
                             std::to_string(out.attempted) + " extents");

    out.v_ops = extents;
    out.v_seconds = toSec(v_total);
    out.v["p50_op_lat_us"] = lat_us.percentile(50.0);
    out.v["p99_op_lat_us"] = lat_us.percentile(99.0);
    out.v["v_total_ns"] = static_cast<double>(v_total);
    out.v["bytes"] = static_cast<double>(bytes);

    auto &L = out.layer;
    L["fs.v_write_mbps"] = static_cast<double>(bytes) / 1e6 / toSec(write_v);
    L["fs.v_read_mbps"] = static_cast<double>(bytes) / 1e6 / toSec(read_v);
    L["fs.disk_busy_share"] = perOp(static_cast<double>(st.disk_busy),
                                    static_cast<double>(v_total));
    remote::LakeLib &lib = lake.lib();
    L["remote.calls_per_op"] =
        perOp(static_cast<double>(lib.calls()), extents);
    L["remote.daemon_commands_per_op"] = perOp(
        static_cast<double>(lake.daemon().commandsHandled()), extents);
    L["remote.doorbells_per_op"] =
        perOp(static_cast<double>(lib.doorbells()), extents);
    L["remote.batches_flushed"] = static_cast<double>(lib.batchesFlushed());
    L["remote.bytes_marshalled"] =
        static_cast<double>(lib.bytesMarshalled());
    L["remote.faults"] = static_cast<double>(lib.faultsSeen());
    L["remote.retries"] = static_cast<double>(lib.retries());
    L["channel.messages_per_op"] =
        perOp(static_cast<double>(lake.channel().messagesSent()), extents);
    L["channel.bytes_per_op"] =
        perOp(static_cast<double>(lake.channel().bytesSent()), extents);
    L["gpu.launches"] = static_cast<double>(lake.device().launches());
    L["gpu.util_pct_mean"] =
        lake.device().utilization(lake.clock().now(), v_total);
    L["gpu.util_pct_spread"] = 0.0;
    L["shm.highwater_bytes"] = static_cast<double>(lake.arena().highwater());
    L["shm.allocs_per_op"] = perOp(static_cast<double>(allocs), extents);

    if (tr) {
        const KindStat &enc = tr->stat(Kind::CryptoEncrypt);
        const KindStat &dec = tr->stat(Kind::CryptoDecrypt);
        L["crypto.extent_host_us"] =
            perOp(static_cast<double>(enc.total_host + dec.total_host) / 1e3,
                  extents);
        L["crypto.extent_v_us"] =
            perOp(static_cast<double>(enc.total_v + dec.total_v) / 1e3,
                  extents);
        const KindStat &w = tr->stat(Kind::FsWrite);
        const KindStat &r = tr->stat(Kind::FsRead);
        L["fs.self_host_ns_per_extent"] =
            perOp(static_cast<double>(w.self_host + r.self_host), extents);
        L["fs.crypto_busy_share"] =
            perOp(static_cast<double>(enc.total_v + dec.total_v),
                  static_cast<double>(v_total));
        addLayerShares(*tr, extents, L);
    }
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeEcryptfsBulk(const Params &p)
{
    return std::make_unique<EcryptfsBulk>(p);
}

} // namespace lake::perfbench
