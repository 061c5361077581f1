#include "registry/schema.h"

#include "base/logging.h"

namespace lake::registry {

std::uint64_t
featureKey(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    // Key 0 is reserved: no feature ever hashes to it.
    return h == 0 ? 1 : h;
}

Schema &
Schema::add(const std::string &name, std::uint32_t size,
            std::uint32_t entries)
{
    LAKE_ASSERT(size >= 1 && size <= 8,
                "feature '%s': size %u outside 1..8", name.c_str(), size);
    LAKE_ASSERT(entries >= 1, "feature '%s': entries must be >= 1",
                name.c_str());
    std::uint64_t key = featureKey(name);
    LAKE_ASSERT(!by_key_.count(key), "duplicate feature '%s'",
                name.c_str());
    by_key_.emplace(key, order_.size());
    order_.push_back(FeatureSpec{name, size, entries});
    if (entries > 1)
        has_history_ = true;
    return *this;
}

const FeatureSpec *
Schema::find(std::uint64_t key) const
{
    auto it = by_key_.find(key);
    return it == by_key_.end() ? nullptr : &order_[it->second];
}

std::uint32_t
Schema::columnOf(std::uint64_t key) const
{
    auto it = by_key_.find(key);
    return it == by_key_.end()
               ? kNoColumn
               : static_cast<std::uint32_t>(it->second);
}

} // namespace lake::registry
