#include "common/jobs.hh"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace seesaw {

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("SEESAW_JOBS"); env && *env) {
        char *end = nullptr;
        errno = 0;
        const long long parsed = std::strtoll(env, &end, 10);
        if (end != env && *end == '\0' && errno != ERANGE &&
            parsed >= 1 && parsed <= UINT_MAX)
            return static_cast<unsigned>(parsed);
        SEESAW_WARN("ignoring unparsable SEESAW_JOBS=", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace seesaw
