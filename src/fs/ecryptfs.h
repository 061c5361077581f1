#ifndef LAKE_FS_ECRYPTFS_H
#define LAKE_FS_ECRYPTFS_H

/**
 * @file
 * A stacked cryptographic file system in the image of eCryptfs (§7.7).
 *
 * Files are stored encrypted in extents on a lower file system; reads
 * fetch ciphertext extents from the (modeled) disk and decrypt them
 * with the configured cipher engine, writes encrypt and then flush.
 * With read-ahead enabled the lower-FS fetch of extent i+1 overlaps
 * the decryption of extent i — the overlap the paper arranges by
 * setting the read-ahead size to the block size. Throughput therefore
 * converges to min(disk bandwidth, cipher bandwidth), which is what
 * Fig. 14 sweeps across block sizes and engines.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/time.h"
#include "crypto/engines.h"

namespace lake::fs {

/** The lower file system + device, as a streaming model. */
struct LowerFsModel
{
    double read_gbps = 1.35;  //!< effective streaming read bandwidth
    double write_gbps = 1.30; //!< effective streaming write bandwidth
    Nanos per_extent = 9_us;  //!< request overhead per extent (VFS+NVMe)

    /** The testbed's NVMe through ext4, as the paper's setup sees it. */
    static LowerFsModel testbed() { return LowerFsModel{}; }
};

/** Counters for Fig. 15-style utilization accounting. */
struct ECryptFsStats
{
    std::uint64_t extents_read = 0;
    std::uint64_t extents_written = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    Nanos disk_busy = 0;   //!< time the lower FS spent streaming
    Nanos crypto_busy = 0; //!< time the cipher engine was working
};

/**
 * The stacked encrypted file system.
 */
class ECryptFs
{
  public:
    /**
     * @param cipher      cipher engine (CPU / AES-NI / LAKE / hybrid)
     * @param clock       virtual clock shared with the engine
     * @param lower       lower FS model
     * @param extent_bytes encryption block size (Fig. 14's x axis)
     * @param readahead   true = lower-FS fetch overlaps decryption
     */
    ECryptFs(crypto::CipherEngine &cipher, Clock &clock,
             LowerFsModel lower, std::size_t extent_bytes,
             bool readahead = true);

    /** Writes (creates or replaces) a file; synchronous semantics. */
    Status writeFile(const std::string &path, const std::uint8_t *data,
                     std::size_t size);

    /** Reads a whole file back, decrypting and verifying every extent. */
    Result<std::vector<std::uint8_t>> readFile(const std::string &path);

    /** True when @p path exists. */
    bool exists(const std::string &path) const;

    /** Stored ciphertext size of a file (0 when absent). */
    std::size_t storedSize(const std::string &path) const;

    /** Extent size in force. */
    std::size_t extentBytes() const { return extent_bytes_; }

    /** Cumulative counters. */
    const ECryptFsStats &stats() const { return stats_; }

  private:
    struct Extent
    {
        /** plain_len bytes of ciphertext, allocated uninitialized:
         *  the cipher writes every byte. */
        std::unique_ptr<std::uint8_t[]> cipher;
        std::uint8_t iv[crypto::kGcmIvBytes] = {};
        std::uint8_t tag[crypto::kGcmTagBytes] = {};
        std::size_t plain_len = 0;
    };

    struct File
    {
        std::vector<Extent> extents;
        std::size_t size = 0;
    };

    /** Modeled disk streaming time for @p bytes. */
    Nanos diskTime(std::size_t bytes, bool write) const;

    /**
     * Extents per group when the engine is batched(): the
     * double-buffering grain — group i's crypto overlaps the lower FS
     * streaming group i+1 (read) or flushing group i-1 (write). Every
     * other engine walks one extent per group, its serial trajectory.
     */
    static constexpr std::size_t kBatchExtents = 32;

    crypto::CipherEngine &cipher_;
    Clock &clock_;
    LowerFsModel lower_;
    std::size_t extent_bytes_;
    bool readahead_;
    std::map<std::string, File> files_;
    ECryptFsStats stats_;
    std::uint64_t iv_counter_ = 1;
};

} // namespace lake::fs

#endif // LAKE_FS_ECRYPTFS_H
