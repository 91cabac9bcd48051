/**
 * @file
 * The host thread budget shared by every parallel layer: campaign
 * worker pools (src/harness) and one-pass substrate replay
 * (src/sim/multi_config_engine.hh).
 */

#ifndef SEESAW_COMMON_JOBS_HH
#define SEESAW_COMMON_JOBS_HH

#include <optional>
#include <string_view>

namespace seesaw {

/**
 * Parse a thread or process count: a whole decimal number in
 * [@p min, UINT_MAX]. @return nothing for any other text (empty,
 * trailing junk, negative, out of range).
 */
std::optional<unsigned> parseJobs(std::string_view text,
                                  unsigned min = 1);

/**
 * Default worker-thread count: the SEESAW_JOBS environment variable
 * when parseJobs() accepts it, otherwise
 * std::thread::hardware_concurrency (itself clamped to >= 1). Any
 * other SEESAW_JOBS value (trailing junk, zero, negative, out of
 * range) is ignored with a warning.
 */
unsigned defaultJobs();

} // namespace seesaw

#endif // SEESAW_COMMON_JOBS_HH
