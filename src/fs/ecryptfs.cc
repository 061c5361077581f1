#include "fs/ecryptfs.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "base/logging.h"

namespace lake::fs {

ECryptFs::ECryptFs(crypto::CipherEngine &cipher, Clock &clock,
                   LowerFsModel lower, std::size_t extent_bytes,
                   bool readahead)
    : cipher_(cipher), clock_(clock), lower_(lower),
      extent_bytes_(extent_bytes), readahead_(readahead)
{
    LAKE_ASSERT(extent_bytes_ >= 4096, "extent must be >= 4 KiB");
}

Nanos
ECryptFs::diskTime(std::size_t bytes, bool write) const
{
    double gbps = write ? lower_.write_gbps : lower_.read_gbps;
    return lower_.per_extent +
           static_cast<Nanos>(static_cast<double>(bytes) / gbps);
}

Status
ECryptFs::writeFile(const std::string &path, const std::uint8_t *data,
                    std::size_t size)
{
    if (data == nullptr && size > 0)
        return Status(Code::InvalidArgument, "null data");

    // An empty file still stores one (empty) extent.
    std::size_t n_ext =
        std::max<std::size_t>(1, (size + extent_bytes_ - 1) / extent_bytes_);
    std::size_t group = cipher_.batched() ? kBatchExtents : 1;
    File file;
    file.size = size;
    file.extents.resize(n_ext);
    std::vector<crypto::ExtentOp> ops;
    ops.reserve(std::min(n_ext, group));

    // Extents are encrypted a group at a time while the lower FS
    // flushes the previous group on its own busy horizon: the engine
    // charges the shared clock, the disk overlaps it.
    Nanos disk_free = clock_.now();
    for (std::size_t g = 0; g < n_ext; g += group) {
        std::size_t last = std::min(n_ext, g + group);
        ops.clear();
        for (std::size_t i = g; i < last; ++i) {
            std::size_t off = i * extent_bytes_;
            std::size_t n = std::min(extent_bytes_, size - off);
            Extent &ext = file.extents[i];
            ext.plain_len = n;
            ext.cipher = std::make_unique_for_overwrite<std::uint8_t[]>(n);
            std::uint64_t ctr = iv_counter_++;
            std::memcpy(ext.iv, &ctr, sizeof(ctr));
            if (n > 0)
                ops.push_back({.iv = ext.iv, .in = data + off, .len = n,
                               .out = ext.cipher.get()});
        }
        if (!ops.empty())
            cipher_.encryptBatch(ops.data(), ops.size());
        const crypto::ExtentOp *op = ops.data();
        for (std::size_t i = g; i < last; ++i) {
            Extent &ext = file.extents[i];
            if (ext.plain_len > 0)
                std::memcpy(ext.tag, (op++)->tag, sizeof(ext.tag));
            Nanos t = diskTime(ext.plain_len, /*write=*/true);
            disk_free = std::max(disk_free, clock_.now()) + t;
            stats_.disk_busy += t;
            stats_.extents_written += 1;
            stats_.bytes_written += ext.plain_len;
        }
    }

    // Synchronous write semantics: wait for the last flush.
    clock_.advanceTo(disk_free);
    files_[path] = std::move(file);
    return Status::ok();
}

Result<std::vector<std::uint8_t>>
ECryptFs::readFile(const std::string &path)
{
    auto it = files_.find(path);
    if (it == files_.end()) {
        return Result<std::vector<std::uint8_t>>(
            Status(Code::NotFound, "no file " + path));
    }
    const std::vector<Extent> &extents = it->second.extents;
    std::vector<std::uint8_t> out(it->second.size);
    std::size_t group = cipher_.batched() ? kBatchExtents : 1;
    std::vector<crypto::ExtentOp> ops;
    ops.reserve(std::min(extents.size(), group));

    // Read-ahead pipeline: the lower FS streams extents on its own
    // horizon while the previous group decrypts; a group's decryption
    // starts when its last extent has landed. Without read-ahead each
    // fetch is demanded only once the previous group is decrypted,
    // fully serializing the two.
    Nanos disk_free = clock_.now();
    std::size_t off = 0;
    for (std::size_t g = 0; g < extents.size(); g += group) {
        std::size_t last = std::min(extents.size(), g + group);
        std::size_t group_off = off;
        ops.clear();
        for (std::size_t i = g; i < last; ++i) {
            const Extent &ext = extents[i];
            Nanos t = diskTime(ext.plain_len, /*write=*/false);
            Nanos issue = readahead_ ? disk_free
                                     : std::max(disk_free, clock_.now());
            disk_free = issue + t;
            stats_.disk_busy += t;
            if (ext.plain_len > 0) {
                crypto::ExtentOp op{.iv = ext.iv, .in = ext.cipher.get(),
                                    .len = ext.plain_len,
                                    .out = out.data() + off};
                std::memcpy(op.tag, ext.tag, sizeof(op.tag));
                ops.push_back(op);
            }
            off += ext.plain_len;
        }
        clock_.advanceTo(disk_free);

        if (!ops.empty()) {
            Nanos c0 = clock_.now();
            bool ok = cipher_.decryptBatch(ops.data(), ops.size());
            stats_.crypto_busy += clock_.now() - c0;
            if (!ok) {
                return Result<std::vector<std::uint8_t>>(Status(
                    Code::Internal, "extent authentication failed"));
            }
        }
        // An extent counts as read once its group has authenticated.
        stats_.extents_read += last - g;
        stats_.bytes_read += off - group_off;
    }
    return Result<std::vector<std::uint8_t>>(std::move(out));
}

bool
ECryptFs::exists(const std::string &path) const
{
    return files_.count(path) != 0;
}

std::size_t
ECryptFs::storedSize(const std::string &path) const
{
    auto it = files_.find(path);
    if (it == files_.end())
        return 0;
    std::size_t n = 0;
    for (const Extent &e : it->second.extents)
        n += e.plain_len + sizeof(e.iv) + sizeof(e.tag);
    return n;
}

} // namespace lake::fs
