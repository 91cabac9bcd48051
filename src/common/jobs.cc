#include "common/jobs.hh"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/logging.hh"

namespace seesaw {

std::optional<unsigned>
parseJobs(std::string_view text, unsigned min)
{
    const std::string copy(text); // strtoll needs the terminator
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(copy.c_str(), &end, 10);
    if (end == copy.c_str() || *end != '\0' || errno == ERANGE ||
        parsed < min || parsed > UINT_MAX)
        return std::nullopt;
    return static_cast<unsigned>(parsed);
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("SEESAW_JOBS"); env && *env) {
        if (const auto jobs = parseJobs(env))
            return *jobs;
        SEESAW_WARN("ignoring unparsable SEESAW_JOBS=", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace seesaw
