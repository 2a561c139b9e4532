/**
 * @file
 * Capability-annotated locking primitives.
 *
 * libstdc++'s std::mutex carries no thread-safety attributes, so a
 * member declared MORPH_GUARDED_BY(some_std_mutex) makes clang's
 * -Wthread-safety warn about the annotation itself instead of
 * checking it. morph::Mutex is a zero-cost wrapper that IS a clang
 * capability; LockGuard/UniqueLock are the matching scoped holders.
 * Everything inlines to the std primitives — the wrappers exist only
 * to carry annotations for clang TSA.
 *
 * UniqueLock deliberately supports only the protocol RunPool needs:
 * construct-locked, wait on a condition_variable_any, unlock early.
 * No deferred/adopt tags, no timed waits — add them when a caller
 * exists.
 */

#ifndef MORPH_COMMON_MUTEX_HH
#define MORPH_COMMON_MUTEX_HH

#include <mutex>

#include "common/annotations.hh"

namespace morph
{

/** Annotated exclusive mutex (wraps std::mutex). */
class MORPH_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() MORPH_ACQUIRE() { impl_.lock(); }
    void unlock() MORPH_RELEASE() { impl_.unlock(); }
    bool try_lock() MORPH_TRY_ACQUIRE(true) { return impl_.try_lock(); }

  private:
    std::mutex impl_;
};

/** Scoped lock: held from construction to end of scope. */
class MORPH_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mu) MORPH_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~LockGuard() MORPH_RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu_;
};

/** Scoped lock that a condition variable can release and re-acquire,
 *  and that the owner may unlock before scope exit. Satisfies the
 *  BasicLockable requirements of std::condition_variable_any. */
class MORPH_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mu) MORPH_ACQUIRE(mu)
        : mu_(mu), held_(true)
    {
        mu_.lock();
    }
    ~UniqueLock() MORPH_RELEASE()
    {
        if (held_)
            mu_.unlock();
    }

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

    void
    lock() MORPH_ACQUIRE()
    {
        mu_.lock();
        held_ = true;
    }

    void
    unlock() MORPH_RELEASE()
    {
        held_ = false;
        mu_.unlock();
    }

  private:
    Mutex &mu_;
    bool held_;
};

} // namespace morph

#endif // MORPH_COMMON_MUTEX_HH
