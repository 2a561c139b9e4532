// Clang thread-safety fixture: a MORPH_EXCLUDES function called while
// the excluded mutex is held. Compiles clean with -Wno-thread-safety
// and must fail with -Werror=thread-safety-analysis (locks_excluded).
#include "common/mutex.hh"

namespace fixture
{

class Queue
{
  public:
    void drain() MORPH_EXCLUDES(mu_);
    void shutdown();

  private:
    morph::Mutex mu_;
};

void
Queue::drain()
{
    morph::LockGuard guard(mu_);
}

void
Queue::shutdown()
{
    morph::LockGuard guard(mu_);
    drain(); // mu_ is already held
}

} // namespace fixture
