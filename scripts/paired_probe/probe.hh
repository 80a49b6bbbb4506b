/**
 * @file
 * The interface between the paired probe's main program and its two
 * sides.
 *
 * side.cc is compiled twice, once against each library build, with
 * `-Dpe=peb` (the base) and `-Dpe=pev` (the change), so every
 * library symbol lives in its own namespace and both link into one
 * binary.  This header names only the `probe` namespace, which the
 * macro leaves alone, so the main program sees one Side type for both.
 */

#ifndef PAIRED_PROBE_PROBE_HH
#define PAIRED_PROBE_PROBE_HH

#include <cstddef>
#include <cstdint>

namespace probe
{

/** One run of one campaign_spec job. */
struct Run
{
    uint64_t fingerprint = 0;   //!< over every identity field
    double cpuSeconds = 0;      //!< CLOCK_THREAD_CPUTIME_ID
};

/** One library build, seen through plain types. */
struct Side
{
    /** Compile the apps, build one engine per (app, arm) and draw
     *  @p inputsPerApp benign inputs per app from @p seed. */
    void (*setup)(uint64_t seed, size_t inputsPerApp);
    size_t (*numJobs)();
    /** Job @p j's arm, 0..3: off, off_cmp, std, cmp. */
    unsigned (*arm)(size_t j);
    /** Job @p j's app, its input index and arm, for messages. */
    const char *(*describe)(size_t j);
    Run (*run)(size_t j);
};

constexpr unsigned kNumArms = 4;
constexpr const char *kArmNames[kNumArms] = {"off", "off_cmp", "std",
                                             "cmp"};

} // namespace probe

#endif // PAIRED_PROBE_PROBE_HH
