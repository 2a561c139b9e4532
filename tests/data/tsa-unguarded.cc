// Clang thread-safety fixture: a MORPH_GUARDED_BY member written
// without its mutex held. Compiles clean with -Wno-thread-safety and
// must fail with -Werror=thread-safety-analysis (guarded_by).
#include "common/mutex.hh"

namespace fixture
{

class Tally
{
  public:
    void bump();

  private:
    morph::Mutex mu_;
    unsigned hits_ MORPH_GUARDED_BY(mu_) = 0;
};

void
Tally::bump()
{
    ++hits_; // mu_ is not held
}

} // namespace fixture
