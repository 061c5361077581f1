#ifndef LAKE_PERFBENCH_LINNOS_FEATURES_H
#define LAKE_PERFBENCH_LINNOS_FEATURES_H

/**
 * @file
 * The LinnOS registry schema and its 31-input encoding, shared by the
 * two workloads that score LinnOS-shaped feature vectors.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ml/matrix.h"
#include "registry/registry.h"
#include "registry/schema.h"
#include "storage/linnos.h"

namespace lake::perfbench {

/** The four latency-history features, most recent first. */
inline const std::array<std::string, storage::kLinnosHistory> kLatFeature = {
    "io_lat0", "io_lat1", "io_lat2", "io_lat3"};

/** pend_ios plus the latency history, in column order. */
inline registry::Schema
linnosSchema()
{
    registry::Schema schema;
    schema.add("pend_ios");
    for (const std::string &f : kLatFeature)
        schema.add(f);
    return schema;
}

/** The 31 LinnOS inputs of each feature vector. */
inline ml::Matrix
featurize(const std::vector<registry::FeatureVector> &fvs)
{
    static const std::uint64_t pend_key = registry::featureKey("pend_ios");
    static const std::array<std::uint64_t, storage::kLinnosHistory>
        lat_keys = [] {
            std::array<std::uint64_t, storage::kLinnosHistory> keys{};
            for (std::size_t h = 0; h < storage::kLinnosHistory; ++h)
                keys[h] = registry::featureKey(kLatFeature[h]);
            return keys;
        }();
    ml::Matrix x(fvs.size(), storage::kLinnosFeatures);
    for (std::size_t r = 0; r < fvs.size(); ++r) {
        std::array<std::uint32_t, storage::kLinnosHistory> hist{};
        for (std::size_t h = 0; h < storage::kLinnosHistory; ++h)
            hist[h] = static_cast<std::uint32_t>(fvs[r].get(lat_keys[h]));
        storage::encodeLinnosFeatures(
            static_cast<std::uint32_t>(fvs[r].get(pend_key)), hist,
            x.row(r));
    }
    return x;
}

} // namespace lake::perfbench

#endif // LAKE_PERFBENCH_LINNOS_FEATURES_H
