#ifndef LAKE_BASE_ENV_H
#define LAKE_BASE_ENV_H

/**
 * @file
 * The one parser behind every LAKE_* count knob (LAKE_STREAMS,
 * LAKE_SCORE_MAX_BATCH, LAKE_SOA_SLACK, ...) and its microsecond
 * form (LAKE_SCORE_MAX_DELAY_US, LAKE_SERVE_PUMP_US, ...).
 */

#include <cstddef>
#include <optional>

#include "base/time.h"

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

/**
 * envCount(@p name, @p fallback) for a knob its consumer requires to
 * be positive (a batch size, a queue bound): 0 keeps @p fallback too,
 * as a malformed value does, instead of reaching that consumer's
 * assert.
 */
inline std::size_t
envPositiveCount(const char *name, std::size_t fallback)
{
    const std::size_t v = envCount(name, fallback);
    return v > 0 ? v : fallback;
}

/**
 * Reads environment variable @p name as an envCount() of microseconds
 * and returns it in nanoseconds, or @p fallback (already in
 * nanoseconds) when it is unset, malformed, or its nanosecond form
 * overflows Nanos.
 */
Nanos envMicros(const char *name, Nanos fallback);

} // namespace lake::base

#endif // LAKE_BASE_ENV_H
