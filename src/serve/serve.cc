#include "serve/serve.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/env.h"

namespace lake::serve {

namespace {

/** Parses a finite non-negative double env var; @p fallback when
 *  unset or bad ("inf", "nan" and "1e999" are bad). */
double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(parsed) || parsed < 0.0)
        return fallback;
    return parsed;
}

} // namespace

void
ServeConfig::applyEnv()
{
    tenants = base::envPositiveCount("LAKE_SERVE_TENANTS", tenants);
    rate_rps = envDouble("LAKE_SERVE_RATE_RPS", rate_rps);
    seed = base::envCount("LAKE_SERVE_SEED", seed);
    bucket_rate = envDouble("LAKE_SERVE_BUCKET_RATE", bucket_rate);
    bucket_burst = envDouble("LAKE_SERVE_BUCKET_BURST", bucket_burst);
    queue_capacity =
        base::envPositiveCount("LAKE_SERVE_QUEUE_CAP", queue_capacity);
    shed_oldest =
        base::envCount("LAKE_SERVE_SHED", shed_oldest ? 1 : 0) != 0;
    drr_quantum = base::envPositiveCount("LAKE_SERVE_QUANTUM", drr_quantum);
    // 0 us keeps the interval in force, as 0 does for the count knobs
    // above: TrafficGenerator requires all four positive.
    if (Nanos pump = base::envMicros("LAKE_SERVE_PUMP_US", 0); pump > 0)
        pump_interval = pump;
    max_runahead = base::envMicros("LAKE_SERVE_RUNAHEAD_US", max_runahead);
    shards = base::envCount("LAKE_SERVE_SHARDS", shards);
    if (const char *v = std::getenv("LAKE_SERVE_TRACE"); v && *v)
        trace_path = v;
}

Status
loadTrace(const std::string &path, std::size_t tenants,
          std::vector<TraceEntry> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return Status(Code::NotFound, "cannot open trace " + path);
    out.clear();
    char line[256];
    std::size_t lineno = 0;
    Nanos prev = 0;
    Status st = Status::ok();
    while (std::fgets(line, sizeof line, f)) {
        ++lineno;
        const char *p = line;
        while (*p == ' ' || *p == '\t')
            ++p;
        if (*p == '\0' || *p == '\n' || *p == '#')
            continue;
        char *end = nullptr;
        unsigned long long us = std::strtoull(p, &end, 10);
        if (end == p) {
            st = Status(Code::InvalidArgument,
                        path + ":" + std::to_string(lineno) +
                            ": expected \"<time_us> <tenant>\"");
            break;
        }
        p = end;
        unsigned long long tenant = std::strtoull(p, &end, 10);
        if (end == p) {
            st = Status(Code::InvalidArgument,
                        path + ":" + std::to_string(lineno) +
                            ": missing tenant id");
            break;
        }
        // Only trailing whitespace may follow the pair.
        for (p = end; *p; ++p) {
            if (*p != ' ' && *p != '\t' && *p != '\n' && *p != '\r') {
                st = Status(Code::InvalidArgument,
                            path + ":" + std::to_string(lineno) +
                                ": trailing garbage");
                break;
            }
        }
        if (!st.isOk())
            break;
        Nanos at = static_cast<Nanos>(us) * 1000ull;
        if (at < prev) {
            st = Status(Code::InvalidArgument,
                        path + ":" + std::to_string(lineno) +
                            ": time moves backwards");
            break;
        }
        if (tenant >= tenants) {
            st = Status(Code::InvalidArgument,
                        path + ":" + std::to_string(lineno) +
                            ": tenant " + std::to_string(tenant) +
                            " out of range (have " +
                            std::to_string(tenants) + ")");
            break;
        }
        prev = at;
        out.push_back(TraceEntry{at, static_cast<std::size_t>(tenant)});
    }
    std::fclose(f);
    if (!st.isOk())
        out.clear();
    return st;
}

} // namespace lake::serve
