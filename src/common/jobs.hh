/**
 * @file
 * The host thread budget shared by every parallel layer: campaign
 * worker pools (src/harness) and one-pass substrate replay
 * (src/sim/multi_config_engine.hh).
 */

#ifndef SEESAW_COMMON_JOBS_HH
#define SEESAW_COMMON_JOBS_HH

namespace seesaw {

/**
 * Default worker-thread count: the SEESAW_JOBS environment variable
 * when it is a whole decimal number in [1, UINT_MAX], otherwise
 * std::thread::hardware_concurrency (itself clamped to >= 1). Any
 * other SEESAW_JOBS value (trailing junk, zero, negative, out of
 * range) is ignored with a warning.
 */
unsigned defaultJobs();

} // namespace seesaw

#endif // SEESAW_COMMON_JOBS_HH
