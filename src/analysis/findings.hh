/**
 * @file
 * Input/output types of the morphflow batch analyzer
 * (src/analysis/flow_analyzer.hh): one input file, one finding, one
 * batch result. The tool's JSON artifact and its exit-code contract
 * (0 clean, 1 findings, 2 usage/IO error) are written from these.
 */

#ifndef MORPH_ANALYSIS_FINDINGS_HH
#define MORPH_ANALYSIS_FINDINGS_HH

#include <string>
#include <vector>

namespace morph::analysis
{

/** One input file for an analysis batch. */
struct SourceText
{
    std::string path;
    std::string text;
    /** Apply the nondet-call / nondet-iter rules here. */
    bool determinismScope = false;
};

/** One rule violation (or waived violation). */
struct Finding
{
    std::string rule;    ///< rule ID, e.g. "secret-branch"
    std::string file;
    std::string symbol;  ///< offending identifier, may be empty
    std::string message; ///< human-readable description
    unsigned line = 0;
    bool waived = false;
};

/** The outcome of analyzing a batch of sources. */
struct AnalysisResult
{
    std::vector<Finding> findings; ///< unwaived — these fail the run
    std::vector<Finding> waived;   ///< suppressed by allow() comments
};

} // namespace morph::analysis

#endif // MORPH_ANALYSIS_FINDINGS_HH
