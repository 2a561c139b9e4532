// Clang thread-safety fixture: a MORPH_REQUIRES function called
// without the required mutex held. Compiles clean with
// -Wno-thread-safety and must fail with -Werror=thread-safety-analysis
// (requires_capability).
#include "common/mutex.hh"

namespace fixture
{

class Log
{
  public:
    void flush();

  private:
    void flushLocked() MORPH_REQUIRES(mu_);

    morph::Mutex mu_;
};

void
Log::flushLocked()
{
}

void
Log::flush()
{
    flushLocked(); // mu_ is not held
}

} // namespace fixture
