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

    File file;
    file.size = size;

    if (cipher_.batched() && size > extent_bytes_) {
        Status s = writeFileBatched(file, data, size);
        if (!s.isOk())
            return s;
        files_[path] = std::move(file);
        return Status::ok();
    }

    // Disk flushes overlap the encryption of subsequent extents: the
    // engine charges the shared clock, while the lower FS keeps its
    // own busy horizon.
    Nanos disk_free = clock_.now();

    for (std::size_t off = 0; off < size || (size == 0 && off == 0);
         off += extent_bytes_) {
        std::size_t n = std::min(extent_bytes_, size - off);
        Extent ext;
        ext.plain_len = n;
        ext.cipher = std::make_unique_for_overwrite<std::uint8_t[]>(n);
        std::memset(ext.iv, 0, sizeof(ext.iv));
        std::uint64_t ctr = iv_counter_++;
        std::memcpy(ext.iv, &ctr, sizeof(ctr));

        if (n > 0)
            cipher_.encryptExtent(ext.iv, data + off, n,
                                  ext.cipher.get(), ext.tag);

        Nanos t = diskTime(n, /*write=*/true);
        disk_free = std::max(disk_free, clock_.now()) + t;
        stats_.disk_busy += t;
        stats_.extents_written += 1;
        stats_.bytes_written += n;

        file.extents.push_back(std::move(ext));
        if (size == 0)
            break;
    }

    // Synchronous write semantics: wait for the last flush.
    clock_.advanceTo(disk_free);
    files_[path] = std::move(file);
    return Status::ok();
}

Status
ECryptFs::writeFileBatched(File &file, const std::uint8_t *data,
                           std::size_t size)
{
    // Double-buffered capture: extents are encrypted in groups of
    // kBatchExtents through the engine's pipelined batch path while
    // the lower FS flushes the previous group on its own horizon.
    std::size_t n_ext = (size + extent_bytes_ - 1) / extent_bytes_;
    file.extents.resize(n_ext);
    std::vector<crypto::ExtentOp> ops;
    ops.reserve(std::min(n_ext, kBatchExtents));

    Nanos disk_free = clock_.now();
    for (std::size_t g = 0; g < n_ext; g += kBatchExtents) {
        std::size_t last = std::min(n_ext, g + kBatchExtents);
        ops.clear();
        for (std::size_t i = g; i < last; ++i) {
            std::size_t off = i * extent_bytes_;
            std::size_t n = std::min(extent_bytes_, size - off);
            Extent &ext = file.extents[i];
            ext.plain_len = n;
            ext.cipher = std::make_unique_for_overwrite<std::uint8_t[]>(n);
            std::memset(ext.iv, 0, sizeof(ext.iv));
            std::uint64_t ctr = iv_counter_++;
            std::memcpy(ext.iv, &ctr, sizeof(ctr));

            crypto::ExtentOp op;
            op.iv = ext.iv;
            op.in = data + off;
            op.len = n;
            op.out = ext.cipher.get();
            ops.push_back(op);
        }
        cipher_.encryptBatch(ops.data(), ops.size());
        for (std::size_t i = g; i < last; ++i) {
            Extent &ext = file.extents[i];
            std::memcpy(ext.tag, ops[i - g].tag, sizeof(ext.tag));
            Nanos t = diskTime(ext.plain_len, /*write=*/true);
            disk_free = std::max(disk_free, clock_.now()) + t;
            stats_.disk_busy += t;
            stats_.extents_written += 1;
            stats_.bytes_written += ext.plain_len;
        }
    }
    clock_.advanceTo(disk_free);
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
    const File &file = it->second;

    if (cipher_.batched() && file.extents.size() > 1)
        return readFileBatched(file);

    std::vector<std::uint8_t> out(file.size);
    std::size_t off = 0;

    // Read-ahead pipeline: the lower FS streams extents on its own
    // horizon; decryption consumes them as they land. Without
    // read-ahead each fetch is demanded only when decryption finishes
    // the previous extent, fully serializing the two.
    Nanos disk_free = clock_.now();

    for (const Extent &ext : file.extents) {
        Nanos t = diskTime(ext.plain_len, /*write=*/false);
        Nanos issue = readahead_ ? disk_free
                                 : std::max(disk_free, clock_.now());
        Nanos available = issue + t;
        disk_free = available;
        stats_.disk_busy += t;

        // Decryption cannot start before the ciphertext arrives.
        clock_.advanceTo(available);

        if (ext.plain_len > 0) {
            Nanos c0 = clock_.now();
            bool ok = cipher_.decryptExtent(ext.iv, ext.cipher.get(),
                                            ext.plain_len, ext.tag,
                                            out.data() + off);
            stats_.crypto_busy += clock_.now() - c0;
            if (!ok) {
                return Result<std::vector<std::uint8_t>>(Status(
                    Code::Internal, "extent authentication failed"));
            }
        }
        stats_.extents_read += 1;
        stats_.bytes_read += ext.plain_len;
        off += ext.plain_len;
    }
    return Result<std::vector<std::uint8_t>>(std::move(out));
}

Result<std::vector<std::uint8_t>>
ECryptFs::readFileBatched(const File &file)
{
    std::vector<std::uint8_t> out(file.size);

    // Double-buffered capture, read side: the lower FS streams group
    // i+1 on its own horizon (readahead) while group i moves through
    // the engine's pipelined batch decrypt. Decryption of a group
    // starts when its last extent has landed.
    Nanos disk_free = clock_.now();
    std::vector<crypto::ExtentOp> ops;
    ops.reserve(std::min(file.extents.size(), kBatchExtents));

    std::size_t off = 0;
    for (std::size_t g = 0; g < file.extents.size(); g += kBatchExtents) {
        std::size_t last = std::min(file.extents.size(),
                                    g + kBatchExtents);
        ops.clear();
        Nanos available = clock_.now();
        for (std::size_t i = g; i < last; ++i) {
            const Extent &ext = file.extents[i];
            Nanos t = diskTime(ext.plain_len, /*write=*/false);
            Nanos issue = readahead_ ? disk_free
                                     : std::max(disk_free, clock_.now());
            available = issue + t;
            disk_free = available;
            stats_.disk_busy += t;

            if (ext.plain_len > 0) {
                crypto::ExtentOp op;
                op.iv = ext.iv;
                op.in = ext.cipher.get();
                op.len = ext.plain_len;
                op.out = out.data() + off;
                std::memcpy(op.tag, ext.tag, sizeof(op.tag));
                ops.push_back(op);
            }
            stats_.extents_read += 1;
            stats_.bytes_read += ext.plain_len;
            off += ext.plain_len;
        }
        clock_.advanceTo(available);
        Nanos c0 = clock_.now();
        bool ok = cipher_.decryptBatch(ops.data(), ops.size());
        stats_.crypto_busy += clock_.now() - c0;
        if (!ok) {
            return Result<std::vector<std::uint8_t>>(
                Status(Code::Internal, "extent authentication failed"));
        }
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
