#include "base/env.h"

#include <cerrno>
#include <cstdlib>

namespace lake::base {

std::optional<std::size_t>
envCount(const char *name)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v < '0' || *v > '9')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (*end != '\0' || errno == ERANGE ||
        parsed > static_cast<unsigned long long>(~std::size_t{0}))
        return std::nullopt;
    return static_cast<std::size_t>(parsed);
}

} // namespace lake::base
