/**
 * @file
 * Source-contract annotations: the secret-flow vocabulary the
 * morphflow static analyzer reads, and the concurrency vocabulary
 * Clang's -Wthread-safety analysis checks.
 *
 * Under GCC every macro expands to nothing; the secret-flow macros
 * exist so that morphflow can see, in the token stream, which
 * declarations carry secret material and where the sanctioned
 * declassification points are. Under Clang the capability macros
 * expand to the thread-safety attributes, so the compiler checks the
 * locking contract at compile time; the runtime half of the contract
 * (lock order, worker escape) is ThreadSanitizer's. See
 * docs/CONCURRENCY.md for which engine checks which rule.
 *
 * Secret-flow vocabulary (morphflow):
 *
 *  - `MORPH_SECRET` on a declaration (parameter, local, member,
 *    global, or function return type) marks the declared value as
 *    secret. Taint propagates from annotated names through
 *    assignments, calls, and returns; a secret reaching a branch
 *    condition, an array subscript, a variadic/logging call, or the
 *    end of its scope without a wipe is a finding.
 *
 *  - `MORPH_DECLASSIFY(expr)` marks `expr` as deliberately
 *    declassified: the value is derived from secrets but is safe to
 *    branch on (e.g. the boolean result of a constant-time MAC
 *    comparison). A function whose return value is wrapped in
 *    MORPH_DECLASSIFY is a *declassifier*: its call sites are treated
 *    as public values and its argument expressions are not scanned as
 *    part of an enclosing branch condition.
 *
 * Concurrency vocabulary (Clang thread-safety attributes):
 *
 *  - `MORPH_CAPABILITY(name)` on a class declares it a lockable
 *    capability (morph::Mutex in common/mutex.hh is the one in-tree).
 *  - `MORPH_GUARDED_BY(mu)` on a member or global: every access must
 *    happen while holding `mu` (guarded_by).
 *  - `MORPH_REQUIRES(mu)` on a function: callers must already hold
 *    `mu` (requires_capability).
 *  - `MORPH_EXCLUDES(mu)` on a function: callers must NOT hold `mu` —
 *    the function acquires it itself (locks_excluded).
 *  - `MORPH_ACQUIRE(mu)` / `MORPH_RELEASE(mu)` /
 *    `MORPH_TRY_ACQUIRE(ok, mu)` on lock-wrapper methods.
 *  - `MORPH_SCOPED_CAPABILITY` on RAII guard classes.
 *
 * Ownership markers (documentation only — no tool reads them):
 *
 *  - `MORPH_SHARD_LOCAL` on state owned by exactly one sweep shard /
 *    pool worker at a time (per-run StatRegistry, TraceLog,
 *    PadAuditor...): lock-free by ownership, not by luck.
 *  - `MORPH_MAIN_THREAD` on setup-only state mutated exclusively
 *    before worker threads exist (or after they drain); concurrent
 *    readers of the frozen value are fine.
 *
 * Waivers (for morphflow findings that are understood and accepted):
 *
 *  - `// morphflow: allow(<rule>): <reason>` on the same line as the
 *    finding, or on the line directly above it, waives that rule for
 *    that line.
 *  - `allow-file(<rule>): <reason>` anywhere in a file waives the
 *    rule for the whole file (used for the table-based AES S-box
 *    lookups, which are index-secret by construction).
 *
 * morphflow rules (see tools/morphflow.cc): secret-branch,
 * secret-subscript, secret-log, secret-wipe, secret-member-wipe,
 * nondet-call, nondet-iter.
 */

#ifndef MORPH_COMMON_ANNOTATIONS_HH
#define MORPH_COMMON_ANNOTATIONS_HH

/** Marks the annotated declaration as carrying secret material. */
#define MORPH_SECRET

/** Marks @p expr as deliberately declassified (safe to branch on). */
#define MORPH_DECLASSIFY(expr) (expr)

// Concurrency annotations. Clang's -Wthread-safety checks them at
// compile time; GCC compiles them away. Keep the vocabulary in
// lockstep with docs/CONCURRENCY.md.
#if defined(__clang__) && !defined(MORPH_NO_THREAD_SAFETY_ATTRIBUTES)
#define MORPH_TSA_(x) __attribute__((x))
#else
#define MORPH_TSA_(x)
#endif

/** Declares the annotated class a lockable capability. */
#define MORPH_CAPABILITY(name) MORPH_TSA_(capability(name))

/** Declares the annotated RAII class a scoped lock holder. */
#define MORPH_SCOPED_CAPABILITY MORPH_TSA_(scoped_lockable)

/** The annotated member/global may only be accessed holding @p mu. */
#define MORPH_GUARDED_BY(mu) MORPH_TSA_(guarded_by(mu))

/** Callers of the annotated function must already hold the mutex. */
#define MORPH_REQUIRES(...) MORPH_TSA_(requires_capability(__VA_ARGS__))

/** Callers of the annotated function must NOT hold the mutex. */
#define MORPH_EXCLUDES(...) MORPH_TSA_(locks_excluded(__VA_ARGS__))

/** The annotated function acquires the mutex and returns holding it. */
#define MORPH_ACQUIRE(...) MORPH_TSA_(acquire_capability(__VA_ARGS__))

/** The annotated function releases the mutex. */
#define MORPH_RELEASE(...) MORPH_TSA_(release_capability(__VA_ARGS__))

/** The annotated function acquires the mutex iff it returns @p ok. */
#define MORPH_TRY_ACQUIRE(...) \
    MORPH_TSA_(try_acquire_capability(__VA_ARGS__))

/** Opt a function out of clang's analysis (trusted implementation). */
#define MORPH_NO_THREAD_SAFETY_ANALYSIS \
    MORPH_TSA_(no_thread_safety_analysis)

/** State owned by exactly one sweep shard / pool worker at a time:
 *  lock-free by ownership. A marker for readers: no tool reads it, and
 *  clang has no equivalent attribute. */
#define MORPH_SHARD_LOCAL

/** Setup-only state: mutated exclusively while no worker threads run;
 *  frozen-value readers may be concurrent. A marker for readers: no
 *  tool reads it. */
#define MORPH_MAIN_THREAD

#endif // MORPH_COMMON_ANNOTATIONS_HH
