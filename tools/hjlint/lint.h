#ifndef HASHJOIN_TOOLS_HJLINT_LINT_H_
#define HASHJOIN_TOOLS_HJLINT_LINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/json_writer.h"

namespace hashjoin {
namespace hjlint {

/// One lint violation. `rule` is the stable rule id (used by
/// --rules= filtering and by the JSON report), `line` is 1-based.
struct Finding {
  std::string rule;
  std::string file;
  uint32_t line = 0;
  std::string message;
};

/// Per-file rules, applied to one source file's contents. `path` is the
/// path as given (relative paths stay relative in findings). Mistakes a
/// type can refuse are left to the compiler: [[nodiscard]] Status with
/// -Werror=unused-result, private cache pins, self-counting ladder
/// rungs.
///
/// Rules:
///  - spp-ring-power-of-two: a `ring = ...` state-ring size must be
///    NextPowerOfTwo(<stages * d> + 1) and the companion `mask` must be
///    `ring - 1` (the bit-mask indexing of §5.3 silently corrupts state
///    slots otherwise).
///  - prefetch-stage-discipline: an address passed to Prefetch in one
///    pipeline stage must not be dereferenced later in the same
///    function — the point of the stage split is that the dereference
///    happens a stage later, after the miss has been overlapped.
///  - raw-mutex-primitive: files under src/ must use the annotated
///    Mutex/MutexLock/CondVar wrappers (util/mutex.h), never the std
///    primitives directly, or thread-safety analysis has no capability
///    to track.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& contents,
                              const std::vector<std::string>& rules);

/// Cross-file rule bench-schema-sync: every JSON key tools/bench_diff.cc
/// looks up (Find/FindPath string literals) must be a key some emitter
/// Set()s — src/perf/bench_reporter.cc for the record envelope, plus
/// any extra emitter contents (LintTree passes every bench/*.cc, which
/// emit the per-bench config keys like "scheme"). No-op (no findings)
/// when either primary file is absent.
std::vector<Finding> LintBenchSchema(
    const std::string& diff_path, const std::string& diff_contents,
    const std::string& reporter_path, const std::string& reporter_contents,
    const std::vector<std::string>& extra_emitter_contents = {});

/// Runs every rule (filtered by `rules`; empty = all) over the .h/.cc/
/// .cpp files found under `paths` (files or directories, recursed).
/// `root` anchors the bench-schema-sync pair lookup; pass the repo root
/// or "" to skip that rule.
std::vector<Finding> LintTree(const std::vector<std::string>& paths,
                              const std::string& root,
                              const std::vector<std::string>& rules);

/// Findings as a JSON document: {"findings":[{rule,file,line,message}],
/// "count":N} — shape checked by tests/hjlint_test.cc.
JsonValue FindingsToJson(const std::vector<Finding>& findings);

/// Serializes findings as a baseline file: one `rule<TAB>file<TAB>message`
/// line per unique finding (sorted, deduplicated), plus a header
/// comment. Line numbers are deliberately omitted so edits above a
/// tracked finding do not churn the baseline.
std::string FormatBaseline(const std::vector<Finding>& findings);

/// Result of checking findings against a baseline: `active` findings
/// are not in the baseline (new debt — fail), `suppressed` ones are
/// (tracked debt — reported but not fatal), and `stale` contains one
/// synthetic `stale-baseline` finding per baseline entry that no longer
/// fires (paid-down debt must be removed, or the baseline rots).
struct BaselineApplied {
  std::vector<Finding> active;
  std::vector<Finding> stale;
  std::vector<Finding> suppressed;
};
BaselineApplied ApplyBaseline(const std::vector<Finding>& findings,
                              const std::string& baseline_contents,
                              const std::string& baseline_path);

/// All rule ids, for --rules validation and --help.
const std::vector<std::string>& AllRules();

}  // namespace hjlint
}  // namespace hashjoin

#endif  // HASHJOIN_TOOLS_HJLINT_LINT_H_
