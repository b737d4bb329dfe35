#include "hjlint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "hjlint/facts.h"

namespace hashjoin {
namespace hjlint {
namespace {

// ---------------------------------------------------------------------
// Lexical preprocessing. hjlint is a lexical linter: it works on a
// "code view" of each file where comments and string/char literals are
// blanked out (replaced by spaces, so line/column positions survive).
// That is enough for the project-invariant rules here and keeps the
// tool dependency-free; anything needing real semantics belongs in the
// compiler (thread-safety analysis) instead. The primitives live in
// hjlint/facts.cc (namespace lex) so the per-file rules here and the
// whole-program facts engine share one implementation.
// ---------------------------------------------------------------------

using lex::BlankCommentsAndStrings;
using lex::FindWord;
using lex::IsIdentChar;
using lex::SplitLines;
using lex::Strip;

bool RuleEnabled(const std::vector<std::string>& rules,
                 const std::string& id) {
  return rules.empty() ||
         std::find(rules.begin(), rules.end(), id) != rules.end();
}

// ---------------------------------------------------------------------
// Rule: prefetch-stage-discipline
//
// The whole point of group prefetching / software pipelining is that an
// address prefetched in stage k is dereferenced in stage k+1 — a later
// call, after enough other work has hidden the miss. Prefetching an
// address and touching it a few lines down in the same function is the
// just-in-time anti-pattern of §3 (the prefetch has no time to
// overlap). This rule extracts the first argument of every
// Prefetch*/__builtin_prefetch call and flags a dereference of that
// same expression (EXPR->, *EXPR, EXPR[) later in the same function.
//
// Functions are approximated as the spans between column-0 `}` lines —
// exact for the project's kernel headers, conservative elsewhere.
// ---------------------------------------------------------------------

struct PrefetchCall {
  size_t line_idx;
  std::string arg;  // first argument, whitespace-normalized
};

std::string NormalizeExpr(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c != ' ' && c != '\t') out.push_back(c);
  }
  return out;
}

/// True when the extracted "argument" is really a parameter declaration
/// (`const void* addr`) — i.e. the Prefetch token was a function
/// definition/declaration, not a call site.
bool LooksLikeParamDecl(const std::string& arg) {
  // Two identifiers separated by space/pointer tokens, e.g.
  // "const void* addr", "uint64_t line_addr", "const void *p".
  size_t sp = arg.find_last_of(" *&");
  if (sp == std::string::npos || sp + 1 >= arg.size()) return false;
  std::string last = arg.substr(sp + 1);
  std::string head = Strip(arg.substr(0, sp + 1));
  if (head.empty()) return false;
  if (!IsIdentChar(last[0]) || std::isdigit(static_cast<unsigned char>(last[0])))
    return false;
  // The head must itself end in an identifier or pointer/ref token —
  // a cast like "(const uint8_t*)p" has ')' there and is a call arg.
  char tail = head.back();
  return IsIdentChar(tail) || tail == '*' || tail == '&';
}

/// Extracts the first argument of a call whose '(' is at `open`;
/// returns false when the parens do not balance on this line span.
bool FirstArg(const std::string& text, size_t open, std::string* arg) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    char c = text[i];
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
      if (depth == 0) {
        *arg = Strip(text.substr(open + 1, i - open - 1));
        return true;
      }
    } else if (c == ',' && depth == 1) {
      *arg = Strip(text.substr(open + 1, i - open - 1));
      return true;
    }
  }
  return false;
}

void CheckPrefetchRule(const std::string& path,
                       const std::vector<std::string>& code_lines,
                       std::vector<Finding>* findings) {
  static const char* kPrefetchNames[] = {
      "Prefetch", "PrefetchRead", "PrefetchWrite", "PrefetchRange",
      "__builtin_prefetch"};

  size_t seg_begin = 0;
  while (seg_begin < code_lines.size()) {
    // A segment ends at the next column-0 `}` (function/namespace end).
    size_t seg_end = seg_begin;
    while (seg_end < code_lines.size() &&
           !(code_lines[seg_end].size() >= 1 && code_lines[seg_end][0] == '}')) {
      ++seg_end;
    }

    std::vector<PrefetchCall> calls;
    for (size_t i = seg_begin; i < seg_end; ++i) {
      const std::string& line = code_lines[i];
      for (const char* name : kPrefetchNames) {
        for (size_t p = FindWord(line, name); p != std::string::npos;
             p = FindWord(line, name, p + 1)) {
          // Declarations have a type token directly before the name
          // ("void PrefetchRead("); call sites are preceded by '.',
          // '->', start of line, or punctuation.
          size_t before = line.find_last_not_of(" \t", p == 0 ? 0 : p - 1);
          if (p > 0 && before != std::string::npos &&
              IsIdentChar(line[before])) {
            continue;  // `void Prefetch(` — a declaration
          }
          size_t open = line.find_first_not_of(" \t", p + std::strlen(name));
          if (open == std::string::npos || line[open] != '(') continue;
          // Join continuation lines so multi-line calls parse.
          std::string span = line;
          size_t extra = i + 1;
          std::string arg;
          size_t open_in_span = open;
          while (!FirstArg(span, open_in_span, &arg) &&
                 extra < seg_end && extra < i + 4) {
            span += ' ';
            span += code_lines[extra++];
          }
          if (arg.empty()) continue;
          if (LooksLikeParamDecl(arg)) continue;
          calls.push_back({i, NormalizeExpr(arg)});
        }
      }
    }

    for (const PrefetchCall& call : calls) {
      if (call.arg.empty()) continue;
      // Compound expressions (arithmetic on the pointer) never re-appear
      // verbatim as dereferences; skip them instead of guessing.
      if (call.arg.find('+') != std::string::npos ||
          call.arg.find('(') != std::string::npos) {
        continue;
      }
      for (size_t i = call.line_idx + 1; i < seg_end; ++i) {
        // A co_await is a pipeline-stage boundary: the coroutine
        // suspends and other chains' work overlaps the miss, so a
        // dereference after it is exactly the intended stage split.
        if (FindWord(code_lines[i], "co_await") != std::string::npos) break;
        const std::string norm = NormalizeExpr(code_lines[i]);
        auto deref_at = [&](size_t pos) {
          // Word boundary on the left, then `->`, `[`, or leading `*`.
          bool left_ok = pos == 0 || !IsIdentChar(norm[pos - 1]);
          if (!left_ok) return false;
          size_t end = pos + call.arg.size();
          if (end + 1 < norm.size() && norm[end] == '-' && norm[end + 1] == '>')
            return true;
          if (end < norm.size() && norm[end] == '[') return true;
          if (pos > 0 && norm[pos - 1] == '*' &&
              (pos == 1 || !IsIdentChar(norm[pos - 2])))
            return true;
          return false;
        };
        bool hit = false;
        for (size_t p = norm.find(call.arg); p != std::string::npos;
             p = norm.find(call.arg, p + 1)) {
          if (deref_at(p)) {
            hit = true;
            break;
          }
        }
        if (hit) {
          findings->push_back(
              {"prefetch-stage-discipline", path, uint32_t(i + 1),
               "`" + call.arg + "` was prefetched on line " +
                   std::to_string(call.line_idx + 1) +
                   " and dereferenced in the same stage — the dereference "
                   "belongs in the next pipeline stage, or the prefetch "
                   "hides nothing"});
          break;  // one finding per prefetch call is enough
        }
      }
    }
    seg_begin = seg_end + 1;
  }
}

// ---------------------------------------------------------------------
// Rule: raw-mutex-primitive
//
// Thread-safety analysis only sees lock state through the annotated
// capability types. A raw std::mutex (or lock/cv helper) under src/
// is invisible to the analysis, so every locking site must go through
// util/mutex.h's Mutex/MutexLock/CondVar.
// ---------------------------------------------------------------------

bool RawMutexExemptFile(const std::string& path) {
  return path.find("util/mutex.h") != std::string::npos ||
         path.find("util/thread_annotations.h") != std::string::npos;
}

bool UnderSrc(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  return norm.rfind("src/", 0) == 0 || norm.find("/src/") != std::string::npos;
}

void CheckRawMutexRule(const std::string& path,
                       const std::vector<std::string>& code_lines,
                       std::vector<Finding>* findings) {
  if (!UnderSrc(path) || RawMutexExemptFile(path)) return;
  static const char* kPrimitives[] = {
      "std::mutex",          "std::recursive_mutex",
      "std::shared_mutex",   "std::timed_mutex",
      "std::lock_guard",     "std::unique_lock",
      "std::scoped_lock",    "std::shared_lock",
      "std::condition_variable", "std::condition_variable_any"};
  for (size_t i = 0; i < code_lines.size(); ++i) {
    for (const char* prim : kPrimitives) {
      size_t p = code_lines[i].find(prim);
      if (p == std::string::npos) continue;
      // `std::condition_variable` is a prefix of `_any`; the exact-match
      // guard also skips identifiers like std::mutex_like.
      size_t end = p + std::strlen(prim);
      if (end < code_lines[i].size() && IsIdentChar(code_lines[i][end]))
        continue;
      findings->push_back(
          {"raw-mutex-primitive", path, uint32_t(i + 1),
           std::string(prim) +
               " bypasses the annotated locking layer; use "
               "Mutex/MutexLock/CondVar from util/mutex.h so "
               "-Wthread-safety can see it"});
      break;  // one per line
    }
  }
}

}  // namespace

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& contents,
                              const std::vector<std::string>& rules) {
  std::vector<Finding> findings;
  std::vector<std::string> code_lines =
      SplitLines(BlankCommentsAndStrings(contents));
  if (RuleEnabled(rules, "prefetch-stage-discipline")) {
    CheckPrefetchRule(path, code_lines, &findings);
  }
  if (RuleEnabled(rules, "raw-mutex-primitive")) {
    CheckRawMutexRule(path, code_lines, &findings);
  }
  return findings;
}

namespace {

bool HasLintableExtension(const std::filesystem::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

StatusOr<std::string> ReadFileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Display path for findings: repo-root-relative when the file lives
/// under `root`, so --json output and baselines are stable across
/// checkouts and CI machines. Falls back to the path as given.
std::string DisplayPath(const std::string& path, const std::string& root) {
  if (root.empty()) return path;
  std::error_code ec;
  std::filesystem::path abs =
      std::filesystem::weakly_canonical(path, ec);
  if (ec) return path;
  std::filesystem::path abs_root =
      std::filesystem::weakly_canonical(root, ec);
  if (ec) return path;
  std::filesystem::path rel = abs.lexically_relative(abs_root);
  std::string s = rel.generic_string();
  if (s.empty() || s == "." || s.rfind("..", 0) == 0) return path;
  return s;
}

}  // namespace

std::vector<Finding> LintTree(const std::vector<std::string>& paths,
                              const std::string& root,
                              const std::vector<std::string>& rules) {
  std::vector<Finding> findings;
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(p, ec)) {
      for (auto it = std::filesystem::recursive_directory_iterator(p, ec);
           !ec && it != std::filesystem::recursive_directory_iterator();
           ++it) {
        if (it->is_regular_file() && HasLintableExtension(it->path())) {
          files.push_back(it->path().string());
        }
      }
    } else {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());

  const bool want_facts = RuleEnabled(rules, "lock-order-cycle") ||
                          RuleEnabled(rules, "callback-under-lock") ||
                          RuleEnabled(rules, "atomic-handoff-discipline");
  std::vector<std::pair<std::string, std::string>> sources;  // path, text

  for (const std::string& f : files) {
    auto contents = ReadFileContents(f);
    std::string display = DisplayPath(f, root);
    if (!contents.ok()) {
      findings.push_back({"io", display, 0, contents.status().ToString()});
      continue;
    }
    std::vector<Finding> file_findings =
        LintFile(display, contents.value(), rules);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
    if (want_facts) {
      sources.emplace_back(display, std::move(contents.value()));
    }
  }

  if (want_facts) {
    facts::FactsDb db;
    for (const auto& [path, text] : sources) {
      facts::CollectDecls(path, text, &db.decls);
    }
    for (const auto& [path, text] : sources) {
      facts::ExtractFacts(path, text, &db);
    }
    if (RuleEnabled(rules, "lock-order-cycle")) {
      std::string manifest_display = "tools/hjlint/lock_order.txt";
      facts::Manifest manifest;
      bool have_manifest = false;
      if (!root.empty()) {
        auto text = ReadFileContents(root + "/" + manifest_display);
        if (text.ok()) {
          manifest = facts::ParseManifest(text.value());
          have_manifest = true;
        }
      }
      std::vector<Finding> lock = facts::CheckLockOrder(
          db, manifest, manifest_display, have_manifest);
      findings.insert(findings.end(), lock.begin(), lock.end());
    }
    if (RuleEnabled(rules, "callback-under-lock")) {
      std::vector<Finding> cb = facts::CheckCallbackUnderLock(db);
      findings.insert(findings.end(), cb.begin(), cb.end());
    }
    if (RuleEnabled(rules, "atomic-handoff-discipline")) {
      std::vector<Finding> at = facts::CheckAtomicHandoff(db);
      findings.insert(findings.end(), at.begin(), at.end());
    }
  }
  return findings;
}

JsonValue FindingsToJson(const std::vector<Finding>& findings) {
  JsonValue doc = JsonValue::Object();
  JsonValue arr = JsonValue::Array();
  for (const Finding& f : findings) {
    JsonValue item = JsonValue::Object();
    item.Set("rule", f.rule);
    item.Set("file", f.file);
    item.Set("line", uint64_t(f.line));
    item.Set("message", f.message);
    arr.Append(std::move(item));
  }
  doc.Set("findings", std::move(arr));
  doc.Set("count", uint64_t(findings.size()));
  return doc;
}

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> kRules = {
      "prefetch-stage-discipline", "raw-mutex-primitive",
      "lock-order-cycle",          "callback-under-lock",
      "atomic-handoff-discipline"};
  return kRules;
}

// ---------------------------------------------------------------------
// Baselines. A baseline entry is `rule<TAB>file<TAB>message` — no line
// number, so routine edits above a known finding do not churn the file.
// Check mode partitions current findings into suppressed (in the
// baseline) and active (new); baseline entries that no longer fire are
// themselves findings (stale-baseline), so paid-down debt must be
// removed from the file.
// ---------------------------------------------------------------------

namespace {

std::string BaselineKey(const Finding& f) {
  return f.rule + "\t" + f.file + "\t" + f.message;
}

}  // namespace

std::string FormatBaseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& f : findings) keys.insert(BaselineKey(f));
  std::string out =
      "# hjlint baseline: rule<TAB>file<TAB>message, one tracked "
      "finding per line.\n"
      "# Regenerate with: hjlint --write-baseline=FILE <paths>\n";
  for (const std::string& k : keys) {
    out += k;
    out += '\n';
  }
  return out;
}

BaselineApplied ApplyBaseline(const std::vector<Finding>& findings,
                              const std::string& baseline_contents,
                              const std::string& baseline_path) {
  BaselineApplied result;
  struct Entry {
    uint32_t line;
    std::string key;
    bool hit = false;
  };
  std::vector<Entry> entries;
  std::vector<std::string> lines = SplitLines(baseline_contents);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string s = Strip(lines[i]);
    if (s.empty() || s[0] == '#') continue;
    entries.push_back({uint32_t(i + 1), s, false});
  }
  for (const Finding& f : findings) {
    std::string key = BaselineKey(f);
    bool suppressed = false;
    for (Entry& e : entries) {
      if (e.key == key) {
        e.hit = true;
        suppressed = true;
      }
    }
    if (suppressed) {
      result.suppressed.push_back(f);
    } else {
      result.active.push_back(f);
    }
  }
  for (const Entry& e : entries) {
    if (e.hit) continue;
    std::string rule = e.key.substr(0, e.key.find('\t'));
    result.stale.push_back(
        {"stale-baseline", baseline_path, e.line,
         "baseline entry for rule `" + rule +
             "` no longer fires — the debt is paid, remove the entry"});
  }
  return result;
}

}  // namespace hjlint
}  // namespace hashjoin
