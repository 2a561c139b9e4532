// morphflow fixture: a secret handled the way the rules ask — wiped
// before scope exit, compared through a declassifier, never used to
// branch or index — next to an ordered-container loop. Every rule
// family runs and none fires: the exit-0 pin for the static-analysis
// exit-code contract. Analyzed, never compiled.
#define MORPH_SECRET
#define MORPH_DECLASSIFY(expr) (expr)

#include <map>

void deriveKey(unsigned char *out);
void secureWipe(void *p, unsigned long n);
bool ctEqual(const unsigned char *a, const unsigned char *b);

bool
keyMatches(const unsigned char *expected)
{
    MORPH_SECRET unsigned char key[16];
    deriveKey(key);
    const bool same = MORPH_DECLASSIFY(ctEqual(key, expected));
    secureWipe(key, sizeof key);
    return same;
}

unsigned long
stableSum(const std::map<int, int> &m)
{
    unsigned long sum = 0;
    for (const auto &kv : m) // ordered: same sum on every run
        sum += static_cast<unsigned long>(kv.second);
    return sum;
}
