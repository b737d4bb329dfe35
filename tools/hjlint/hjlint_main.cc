// hjlint — project-invariant linter for the hash-join codebase.
//
// Usage:
//   hjlint [--json=PATH] [--rules=a,b,...] [--root=DIR]
//          [--baseline=FILE | --write-baseline=FILE] PATH...
//
// PATH arguments are files or directories (recursed over .h/.cc/.cpp).
// Exit status: 0 = clean, 1 = findings, 2 = usage/I/O error. With
// --json, the findings are also written as a JSON document (always,
// even when empty, so CI can archive the report unconditionally).
//
// --write-baseline=FILE snapshots the current findings as tracked debt
// (rule<TAB>file<TAB>message per line) and exits 0. --baseline=FILE
// checks against that snapshot: suppressed findings are reported but
// not fatal; findings missing from the baseline, and baseline entries
// that no longer fire (stale), fail the run.
//
// The rules are the invariants the compiler cannot see: prefetch-
// pipeline structure (ring sizing, stage discipline), the
// annotated-mutex layer, bench schema sync, and the whole-program
// concurrency rules (lock-order cycles, callbacks under locks, atomic
// handoff orders).
// See tools/hjlint/lint.h and tools/hjlint/facts.h.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hjlint/lint.h"
#include "util/json_writer.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: hjlint [--json=PATH] [--rules=a,b] [--root=DIR] "
               "[--baseline=FILE | --write-baseline=FILE] PATH...\n\n"
               "rules:\n");
  for (const std::string& r : hashjoin::hjlint::AllRules()) {
    std::fprintf(stderr, "  %s\n", r.c_str());
  }
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

void PrintFindings(const std::vector<hashjoin::hjlint::Finding>& findings,
                   const char* tag) {
  for (const auto& f : findings) {
    std::fprintf(stderr, "%s:%u: [%s]%s %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), tag, f.message.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string root = ".";
  std::string baseline_path;
  std::string write_baseline_path;
  std::vector<std::string> rules;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--rules=", 0) == 0) {
      rules = SplitCommas(arg.substr(8));
      for (const std::string& r : rules) {
        const auto& all = hashjoin::hjlint::AllRules();
        if (std::find(all.begin(), all.end(), r) == all.end()) {
          std::fprintf(stderr, "hjlint: unknown rule '%s'\n", r.c_str());
          Usage();
          return 2;
        }
      }
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(std::string("--baseline=").size());
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path =
          arg.substr(std::string("--write-baseline=").size());
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "hjlint: unknown flag '%s'\n", arg.c_str());
      Usage();
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    Usage();
    return 2;
  }
  if (!baseline_path.empty() && !write_baseline_path.empty()) {
    std::fprintf(stderr,
                 "hjlint: --baseline and --write-baseline are exclusive\n");
    return 2;
  }

  std::vector<hashjoin::hjlint::Finding> findings =
      hashjoin::hjlint::LintTree(paths, root, rules);

  bool io_error = false;
  for (const auto& f : findings) {
    if (f.rule == "io") io_error = true;
  }

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "hjlint: cannot write %s\n",
                   write_baseline_path.c_str());
      return 2;
    }
    out << hashjoin::hjlint::FormatBaseline(findings);
    std::printf("hjlint: wrote %zu baseline finding%s to %s\n",
                findings.size(), findings.size() == 1 ? "" : "s",
                write_baseline_path.c_str());
    return io_error ? 2 : 0;
  }

  size_t suppressed = 0;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "hjlint: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    hashjoin::hjlint::BaselineApplied applied =
        hashjoin::hjlint::ApplyBaseline(findings, ss.str(), baseline_path);
    suppressed = applied.suppressed.size();
    PrintFindings(applied.suppressed, " (baseline)");
    findings = std::move(applied.active);
    findings.insert(findings.end(), applied.stale.begin(),
                    applied.stale.end());
  }

  PrintFindings(findings, "");

  if (!json_path.empty()) {
    hashjoin::Status s = hashjoin::WriteJsonFile(
        json_path, hashjoin::hjlint::FindingsToJson(findings));
    if (!s.ok()) {
      std::fprintf(stderr, "hjlint: %s\n", s.ToString().c_str());
      return 2;
    }
  }

  if (io_error) return 2;
  if (!findings.empty()) return 1;
  std::printf("hjlint: clean (%zu rule%s over %zu path%s%s)\n",
              rules.empty() ? hashjoin::hjlint::AllRules().size()
                            : rules.size(),
              (rules.empty() ? hashjoin::hjlint::AllRules().size()
                             : rules.size()) == 1
                  ? ""
                  : "s",
              paths.size(), paths.size() == 1 ? "" : "s",
              suppressed != 0 ? ", baseline-suppressed findings remain"
                              : "");
  return 0;
}
