/**
 * @file
 * ThreadSanitizer fixture for the worker-escape rule of the locking
 * contract (docs/CONCURRENCY.md): RunPool workers add into a captured
 * outer accumulator with no lock and no atomic. TSan must report the
 * unsynchronized `+=` as a "data race". Built and run only in a
 * ThreadSanitizer build.
 */

#include <cstdio>
#include <vector>

#include "common/run_pool.hh"

int
main()
{
    morph::RunPool pool(4);
    const std::vector<double> values(4096, 1.0);
    double sum = 0.0;
    pool.forEach(values.size(), [&](std::size_t i) {
        // A little private work per task (volatile keeps it from
        // being optimized out), so tasks on different workers overlap
        // in time even on one CPU instead of running back to back.
        volatile double local = 0.0;
        for (int k = 0; k < 200; ++k)
            local = local + values[i];
        sum += local; // unsynchronized write to shared state
    });
    std::printf("sum %.0f\n", sum);
    return 0;
}
