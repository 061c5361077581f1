#ifndef LAKE_BASE_ENV_H
#define LAKE_BASE_ENV_H

/**
 * @file
 * The one parser behind every LAKE_* count knob (LAKE_STREAMS,
 * LAKE_SCORE_MAX_BATCH, LAKE_SOA_SLACK, ...).
 */

#include <cstddef>
#include <optional>

namespace lake::base {

/**
 * Reads environment variable @p name as a non-negative decimal count.
 * Only plain digits are accepted: an unset or empty variable, a sign
 * ("-1" would otherwise wrap to SIZE_MAX through strtoull), leading
 * whitespace, trailing characters ("4x") and values that overflow
 * size_t all read as nullopt, so the caller keeps the value in force.
 */
std::optional<std::size_t> envCount(const char *name);

/** envCount(@p name), or @p fallback when it is unset or malformed. */
inline std::size_t
envCount(const char *name, std::size_t fallback)
{
    return envCount(name).value_or(fallback);
}

} // namespace lake::base

#endif // LAKE_BASE_ENV_H
