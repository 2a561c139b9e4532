/**
 * @file
 * ThreadSanitizer fixture for the lock-order rule of the locking
 * contract (docs/CONCURRENCY.md): two morph::Mutex instances taken in
 * opposite orders by two threads. The threads run one after the other,
 * so the program never actually deadlocks; TSan's lock-order graph
 * still sees the cycle and must report "lock-order-inversion". Built
 * and run only in a ThreadSanitizer build.
 */

#include <thread>

#include "common/mutex.hh"

int
main()
{
    morph::Mutex first;
    morph::Mutex second;
    std::thread forward([&] {
        morph::LockGuard outer(first);
        morph::LockGuard inner(second);
    });
    forward.join();
    std::thread backward([&] {
        morph::LockGuard outer(second);
        morph::LockGuard inner(first);
    });
    backward.join();
    return 0;
}
