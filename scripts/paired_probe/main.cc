/**
 * @file
 * The paired probe's main program: alternates a base and a changed library
 * build run by run in one process, over campaign_spec's arms and
 * inputs, and reports per-arm time ratios and whether every RunResult
 * matched.
 *
 *   paired_probe [rounds] [seed] [inputs-per-app]
 *
 * Each round runs every job once on each side, in an order that flips
 * every round, and times each run on the calling thread's CPU clock.
 * Per arm it prints the median, lowest and highest of the per-round
 * ratios base time / change time (above 1: the change is faster).  It
 * exits 1 when any run's result differs between the sides or between
 * rounds.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "probe.hh"

namespace peb::paired_probe
{
extern const probe::Side side;
}
namespace pev::paired_probe
{
extern const probe::Side side;
}

namespace
{

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const int roundsArg = argc > 1 ? std::atoi(argv[1]) : 10;
    const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;
    const int inputsArg = argc > 3 ? std::atoi(argv[3]) : 12;
    if (roundsArg < 1 || inputsArg < 1) {
        std::fprintf(stderr,
                     "usage: paired_probe [rounds>=1] [seed] [inputs>=1]\n");
        return 2;
    }
    const auto rounds = static_cast<unsigned>(roundsArg);
    const auto inputs = static_cast<size_t>(inputsArg);

    const probe::Side &base = peb::paired_probe::side;
    const probe::Side &change = pev::paired_probe::side;
    base.setup(seed, inputs);
    change.setup(seed, inputs);
    const size_t jobs = base.numJobs();
    if (change.numJobs() != jobs) {
        std::fprintf(stderr, "the two builds drew different jobs\n");
        return 1;
    }

    std::vector<uint64_t> expected(jobs);
    size_t mismatches = 0;
    // ratios[arm][round]: base time over change time.
    std::vector<std::vector<double>> ratios(probe::kNumArms);
    std::vector<double> totals;
    for (unsigned r = 0; r < rounds; ++r) {
        double baseTime[probe::kNumArms] = {};
        double changeTime[probe::kNumArms] = {};
        for (size_t j = 0; j < jobs; ++j) {
            probe::Run b, c;
            if ((r + j) % 2 == 0) {
                b = base.run(j);
                c = change.run(j);
            } else {
                c = change.run(j);
                b = base.run(j);
            }
            const unsigned arm = base.arm(j);
            baseTime[arm] += b.cpuSeconds;
            changeTime[arm] += c.cpuSeconds;
            if (r == 0)
                expected[j] = b.fingerprint;
            if (b.fingerprint != expected[j] ||
                c.fingerprint != expected[j]) {
                if (mismatches++ < 10) {
                    std::printf("MISMATCH round %u: %s\n", r,
                                base.describe(j));
                }
            }
        }
        double bt = 0, ct = 0;
        std::printf("round %2u:", r);
        for (unsigned a = 0; a < probe::kNumArms; ++a) {
            ratios[a].push_back(baseTime[a] / changeTime[a]);
            bt += baseTime[a];
            ct += changeTime[a];
            std::printf(" %s %.3f", probe::kArmNames[a], ratios[a].back());
        }
        totals.push_back(bt / ct);
        std::printf(" all %.3f (base %.3f s, change %.3f s)\n",
                    totals.back(), bt, ct);
        std::fflush(stdout);
    }

    std::printf("\nbase time / change time per round, %u rounds, %zu jobs "
                "(seed %llu, %zu inputs per app):\n",
                rounds, jobs, static_cast<unsigned long long>(seed), inputs);
    auto line = [](const char *name, const std::vector<double> &v) {
        std::printf("  %-8s median %.3f  min %.3f  max %.3f\n", name,
                    median(v), *std::min_element(v.begin(), v.end()),
                    *std::max_element(v.begin(), v.end()));
    };
    for (unsigned a = 0; a < probe::kNumArms; ++a)
        line(probe::kArmNames[a], ratios[a]);
    line("all", totals);
    if (mismatches) {
        std::printf("results: %zu of %zu runs differ\n", mismatches,
                    size_t{rounds} * jobs);
        return 1;
    }
    std::printf("results: all %zu runs identical on both builds\n",
                size_t{rounds} * jobs * 2);
    return 0;
}
