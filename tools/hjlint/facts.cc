#include "hjlint/facts.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace hashjoin {
namespace hjlint {

// ---------------------------------------------------------------------
// Shared lexical layer (used by lint.cc's per-file rules too).
// ---------------------------------------------------------------------

namespace lex {

std::string BlankCommentsAndStrings(const std::string& src) {
  std::string out = src;
  enum class S { kCode, kLineComment, kBlockComment, kString, kChar };
  S s = S::kCode;
  for (size_t i = 0; i < out.size(); ++i) {
    char c = out[i];
    char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (s) {
      case S::kCode:
        if (c == '/' && next == '/') {
          s = S::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          s = S::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          s = S::kString;
        } else if (c == '\'') {
          s = S::kChar;
        }
        break;
      case S::kLineComment:
        if (c == '\n') {
          s = S::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case S::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          s = S::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case S::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          s = S::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case S::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          s = S::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string Strip(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

size_t FindWord(const std::string& line, const std::string& word,
                size_t from) {
  for (size_t p = line.find(word, from); p != std::string::npos;
       p = line.find(word, p + 1)) {
    bool left_ok = p == 0 || !IsIdentChar(line[p - 1]);
    bool right_ok =
        p + word.size() >= line.size() || !IsIdentChar(line[p + word.size()]);
    if (left_ok && right_ok) return p;
  }
  return std::string::npos;
}

}  // namespace lex

namespace facts {
namespace {

using lex::FindWord;
using lex::IsIdentChar;
using lex::Strip;

// ---------------------------------------------------------------------
// Small token helpers.
// ---------------------------------------------------------------------

std::string FirstWord(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = b;
  while (e < s.size() && IsIdentChar(s[e])) ++e;
  return s.substr(b, e - b);
}

std::string LastIdent(const std::string& s) {
  size_t e = s.size();
  while (e > 0 && !IsIdentChar(s[e - 1])) --e;
  size_t b = e;
  while (b > 0 && IsIdentChar(s[b - 1])) --b;
  return s.substr(b, e - b);
}

bool IsAllCaps(const std::string& s) {
  bool has_letter = false;
  for (char c : s) {
    if (std::isupper(static_cast<unsigned char>(c))) {
      has_letter = true;
    } else if (!std::isdigit(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return has_letter;
}

bool IsKeyword(const std::string& s) {
  static const std::set<std::string> kWords = {
      "if",     "for",     "while",   "switch",   "do",       "else",
      "try",    "catch",   "return",  "case",     "default",  "goto",
      "break",  "continue", "sizeof", "new",      "delete",   "throw",
      "co_await", "co_return", "co_yield", "static_assert", "alignof",
      "alignas", "decltype", "noexcept", "assert"};
  return kWords.count(s) != 0;
}

/// Basename without directory or extension: "src/util/thread_pool.cc"
/// -> "thread_pool". Used to break member-name ties: a `b->mu_` in
/// memory_broker.cc resolves to the `mu_` declared in memory_broker.h
/// (MemoryBroker), not the one in join_scheduler.h or thread_pool.h.
std::string FileStem(const std::string& path) {
  size_t slash = path.find_last_of("/\\");
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// Blanks preprocessor lines (and their backslash continuations) so
/// macro bodies — which are not scoped code — never feed the walker.
std::string StripPreprocessor(const std::string& code) {
  std::vector<std::string> lines = lex::SplitLines(code);
  bool cont = false;
  std::string out;
  for (std::string& line : lines) {
    bool is_pp = cont;
    if (!cont) {
      size_t b = line.find_first_not_of(" \t");
      is_pp = b != std::string::npos && line[b] == '#';
    }
    if (is_pp) {
      cont = !line.empty() && line.back() == '\\';
      out.append(line.size(), ' ');
    } else {
      cont = false;
      out += line;
    }
    out.push_back('\n');
  }
  return out;
}

/// Paren nesting depth at position `pos` within `s` (counting from 0).
int ParenDepthAt(const std::string& s, size_t pos) {
  int d = 0;
  for (size_t i = 0; i < pos && i < s.size(); ++i) {
    if (s[i] == '(') ++d;
    if (s[i] == ')') --d;
  }
  return d;
}

/// First '(' outside template angle brackets; npos when none. `<<` is
/// a shift/stream operator (neither char opens an angle); a `>` closes
/// one whenever an angle is open (so `>>` unwinds two nested template
/// arguments) except as part of `->`.
size_t FirstCallParen(const std::string& s) {
  int angle = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '<' && !(i > 0 && s[i - 1] == '<') &&
        !(i + 1 < s.size() && s[i + 1] == '<')) {
      ++angle;
    }
    if (c == '>' && angle > 0 && !(i > 0 && s[i - 1] == '-')) --angle;
    if (c == '(' && angle == 0) return i;
  }
  return std::string::npos;
}

/// True when `s` has a top-level assignment `=` before the first call
/// paren — i.e. the brace that follows is an initializer or a lambda
/// body, not a function definition.
bool HasAssignBeforeParen(const std::string& s) {
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '(') return false;
    if (c == '=') {
      char prev = i > 0 ? s[i - 1] : '\0';
      char next = i + 1 < s.size() ? s[i + 1] : '\0';
      if (prev != '=' && prev != '<' && prev != '>' && prev != '!' &&
          prev != '+' && prev != '-' && prev != '*' && prev != '/' &&
          prev != '&' && prev != '|' && prev != '^' && next != '=') {
        return true;
      }
    }
  }
  return false;
}

void StripLeadingLabels(std::string* s) {
  for (;;) {
    std::string fw = FirstWord(*s);
    if (fw != "public" && fw != "private" && fw != "protected") return;
    size_t colon = s->find(':');
    if (colon == std::string::npos) return;
    *s = Strip(s->substr(colon + 1));
  }
}

/// Skips a leading `template <...>` clause.
std::string StripTemplateClause(const std::string& s) {
  if (FirstWord(s) != "template") return s;
  size_t lt = s.find('<');
  if (lt == std::string::npos) return s;
  int angle = 0;
  for (size_t i = lt; i < s.size(); ++i) {
    if (s[i] == '<') ++angle;
    if (s[i] == '>' && --angle == 0) return Strip(s.substr(i + 1));
  }
  return s;
}

/// Class name from a `class ... {` / `struct ... {` header: the last
/// identifier before the top-level base-clause colon, skipping the
/// `final` specifier and attribute macros.
std::string ExtractClassName(const std::string& header) {
  std::string s = header;
  int angle = 0;
  size_t cut = s.size();
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == ':' && angle == 0) {
      bool dbl = (i + 1 < s.size() && s[i + 1] == ':') ||
                 (i > 0 && s[i - 1] == ':');
      if (!dbl) {
        cut = i;
        break;
      }
    }
  }
  s = Strip(s.substr(0, cut));
  std::string name = LastIdent(s);
  if (name == "final") {
    name = LastIdent(Strip(s.substr(0, s.rfind("final"))));
  }
  if (name.empty() || IsKeyword(name) || name == "class" || name == "struct")
    return "";
  return name;
}

struct FnName {
  bool ok = false;
  std::string id;   // qualified "Class::Fn" (or "Fn")
  std::string cls;  // class part ("" for free functions)
};

/// Function name from a definition header `...ret Class::Fn(args)...`.
FnName ExtractFnName(const std::string& header,
                     const std::string& enclosing_cls) {
  FnName out;
  std::string s = header;
  size_t op = FindWord(s, "operator");
  size_t open;
  std::string token;
  if (op != std::string::npos) {
    open = s.find('(', op);
    if (open == std::string::npos) return out;
    // Walk back over any `X::` qualifier.
    size_t b = op;
    while (b >= 2 && s[b - 1] == ':' && s[b - 2] == ':') {
      b -= 2;
      while (b > 0 && IsIdentChar(s[b - 1])) --b;
    }
    token = s.substr(b, open - b);
    token.erase(std::remove_if(token.begin(), token.end(),
                               [](char c) { return c == ' ' || c == '\t'; }),
                token.end());
  } else {
    open = FirstCallParen(s);
    if (open == std::string::npos) return out;
    size_t e = open;
    while (e > 0 && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
    size_t b = e;
    while (b > 0 && (IsIdentChar(s[b - 1]) || s[b - 1] == ':' ||
                     s[b - 1] == '~')) {
      --b;
    }
    token = s.substr(b, e - b);
  }
  if (token.empty()) return out;
  // Split trailing name from `A::B::name`.
  std::vector<std::string> parts;
  std::stringstream ss(token);
  std::string part;
  while (std::getline(ss, part, ':')) {
    if (!part.empty()) parts.push_back(part);
  }
  if (parts.empty()) return out;
  std::string name = parts.back();
  if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])) ||
      IsKeyword(name)) {
    return out;
  }
  out.ok = true;
  out.cls = parts.size() >= 2 ? parts[parts.size() - 2] : enclosing_cls;
  out.id = out.cls.empty() ? name : out.cls + "::" + name;
  return out;
}

// ---------------------------------------------------------------------
// The statement walker: splits the (blanked, preprocessor-stripped)
// code view into `;`-terminated statements and `{`-opened scopes,
// tracking brace depth, the class stack, and the enclosing function.
// `{`/`}`/`;` inside parentheses do not delimit — a multi-line call
// (lambda arguments included) arrives as one statement.
// ---------------------------------------------------------------------

struct WalkHooks {
  /// A statement (`;`-terminated, or a control-scope header). `depth`
  /// is the brace depth at the statement; `at_class_scope` means it is
  /// a class-member declaration (directly inside a class/struct, not
  /// inside a function body).
  std::function<void(const std::string& stmt, uint32_t line, int depth,
                     const std::string& cls, const std::string& fn,
                     bool at_class_scope)>
      on_stmt;
  /// A function definition header whose body `{` just opened.
  std::function<void(const std::string& header, uint32_t line,
                     const std::string& cls, const std::string& fn_id)>
      on_fn_body;
  /// Fired after a `}` pops to `new_depth`.
  std::function<void(int new_depth)> on_scope_close;
};

void Walk(const std::string& code_view, const WalkHooks& hooks) {
  struct Scope {
    enum class K { kClass, kFn, kOther };
    K kind = K::kOther;
    std::string name;   // class name or fn id
    std::string cls;    // for kFn: the enclosing class of the function
    int body_depth = 0;
  };
  std::vector<Scope> scopes;
  std::string pending;
  uint32_t line = 1;
  uint32_t pending_line = 0;
  int depth = 0;
  int paren = 0;
  int swallow = 0;  // inside a brace initializer / lambda body

  auto cur_cls = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::K::kClass) return it->name;
      if (it->kind == Scope::K::kFn) break;  // class members of a local
    }
    return "";
  };
  auto cur_fn = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::K::kFn) return it->name;
    }
    return "";
  };
  auto emit_stmt = [&](const std::string& text) {
    std::string s = Strip(text);
    if (s.empty()) return;
    std::string fn = cur_fn();
    bool at_class =
        !scopes.empty() && scopes.back().kind == Scope::K::kClass;
    if (hooks.on_stmt) {
      hooks.on_stmt(s, pending_line == 0 ? line : pending_line, depth,
                    cur_cls(), fn, at_class && fn.empty());
    }
  };

  for (size_t i = 0; i < code_view.size(); ++i) {
    char c = code_view[i];
    if (c == '\n') {
      ++line;
      pending.push_back(' ');
      continue;
    }
    if (c == '(') ++paren;
    if (c == ')' && paren > 0) --paren;
    if (swallow > 0) {
      // Inside a brace initializer or a statement-level lambda body:
      // everything (nested braces, semicolons) folds into the pending
      // statement until the opening brace closes.
      if (c == '{') ++swallow;
      if (c == '}') --swallow;
      pending.push_back(c);
      continue;
    }
    if (paren > 0 || (c != ';' && c != '{' && c != '}')) {
      if (pending_line == 0 && c != ' ' && c != '\t') pending_line = line;
      pending.push_back(c);
      continue;
    }
    if (c == ';') {
      emit_stmt(pending);
      pending.clear();
      pending_line = 0;
      continue;
    }
    if (c == '{') {
      std::string p = Strip(pending);
      StripLeadingLabels(&p);
      std::string t = StripTemplateClause(p);
      std::string fw = FirstWord(t);
      Scope sc;
      sc.body_depth = depth + 1;
      bool is_scope = true;
      static const std::set<std::string> kControl = {
          "if",   "for",     "while", "switch", "do",  "else",
          "try",  "catch",   "case",  "default", "return"};
      if (kControl.count(fw) != 0) {
        emit_stmt(p);  // control headers carry facts (loads, calls)
      } else if (fw == "class" || fw == "struct" || fw == "union") {
        sc.kind = Scope::K::kClass;
        sc.name = ExtractClassName(t);
        if (sc.name.empty()) sc.kind = Scope::K::kOther;
      } else if (fw == "namespace" || fw == "extern" || fw == "enum" ||
                 t.empty()) {
        // kOther
      } else if (t.find('(') != std::string::npos &&
                 !HasAssignBeforeParen(t)) {
        FnName fn = ExtractFnName(t, cur_cls());
        if (fn.ok) {
          sc.kind = Scope::K::kFn;
          sc.name = fn.id;
          sc.cls = fn.cls;
          if (hooks.on_fn_body) {
            hooks.on_fn_body(p, pending_line == 0 ? line : pending_line,
                             fn.cls, fn.id);
          }
        } else {
          is_scope = false;
        }
      } else {
        // `Type name{...}`, `auto f = [..]{...}`, array initializers:
        // a value brace, not a scope — keep accumulating the statement.
        is_scope = false;
      }
      if (!is_scope) {
        pending.push_back('{');
        swallow = 1;
        continue;
      }
      ++depth;
      scopes.push_back(sc);
      pending.clear();
      pending_line = 0;
      continue;
    }
    // c == '}'
    emit_stmt(pending);
    pending.clear();
    pending_line = 0;
    if (depth > 0) --depth;
    while (!scopes.empty() && scopes.back().body_depth > depth) {
      scopes.pop_back();
    }
    if (hooks.on_scope_close) hooks.on_scope_close(depth);
  }
  emit_stmt(pending);
}

bool ExemptFromFacts(const std::string& path) {
  // The locking layer itself: its raw std primitives and macro
  // definitions are the mechanism the rules reason about, not subjects.
  return path.find("util/mutex.h") != std::string::npos ||
         path.find("util/thread_annotations.h") != std::string::npos;
}

/// `HJ_XXX(arg, ...)` arguments, each reduced to its last identifier.
std::vector<std::string> MacroArgs(const std::string& stmt,
                                   const std::string& macro) {
  std::vector<std::string> out;
  size_t p = FindWord(stmt, macro);
  if (p == std::string::npos) return out;
  size_t open = stmt.find('(', p);
  if (open == std::string::npos) return out;
  int d = 0;
  size_t start = open + 1;
  for (size_t i = open; i < stmt.size(); ++i) {
    if (stmt[i] == '(') ++d;
    if (stmt[i] == ')' && --d == 0) {
      std::string arg = LastIdent(stmt.substr(start, i - start));
      if (!arg.empty()) out.push_back(arg);
      break;
    }
    if (stmt[i] == ',' && d == 1) {
      std::string arg = LastIdent(stmt.substr(start, i - start));
      if (!arg.empty()) out.push_back(arg);
      start = i + 1;
    }
  }
  return out;
}

std::string Qualify(const std::string& cls, const std::string& name) {
  return cls.empty() ? name : cls + "::" + name;
}

/// Skips `<...>` starting at `lt` (which must be '<'), tolerating
/// nested templates and parens; returns the index after the matching
/// '>', or npos.
size_t SkipTemplateArgs(const std::string& s, size_t lt) {
  int angle = 0;
  for (size_t i = lt; i < s.size(); ++i) {
    if (s[i] == '<') ++angle;
    if (s[i] == '>' && --angle == 0) return i + 1;
  }
  return std::string::npos;
}

std::string IdentAt(const std::string& s, size_t from) {
  while (from < s.size() && (s[from] == ' ' || s[from] == '\t' ||
                             s[from] == '*' || s[from] == '&')) {
    ++from;
  }
  size_t e = from;
  while (e < s.size() && IsIdentChar(s[e])) ++e;
  return s.substr(from, e - from);
}

}  // namespace

// ---------------------------------------------------------------------
// Pass 1: declaration collection.
// ---------------------------------------------------------------------

void CollectDecls(const std::string& path, const std::string& contents,
                  DeclIndex* decls) {
  if (ExemptFromFacts(path)) return;
  std::string code =
      StripPreprocessor(lex::BlankCommentsAndStrings(contents));

  auto record_annotation = [&](const std::string& text, uint32_t line,
                               const std::string& cls,
                               const std::string& fn_hint) {
    if (FindWord(text, "HJ_REQUIRES") == std::string::npos &&
        FindWord(text, "HJ_EXCLUDES") == std::string::npos) {
      return;
    }
    std::string fn_id = fn_hint;
    std::string fn_cls = cls;
    if (fn_id.empty()) {
      FnName fn = ExtractFnName(text, cls);
      if (!fn.ok) return;
      fn_id = fn.id;
      fn_cls = fn.cls;
    }
    FnAnnotation ann;
    ann.fn = fn_id;
    ann.file = path;
    ann.line = line;
    for (const std::string& arg : MacroArgs(text, "HJ_REQUIRES")) {
      ann.requires_held.push_back(Qualify(fn_cls, arg));
    }
    for (const std::string& arg : MacroArgs(text, "HJ_EXCLUDES")) {
      ann.excludes.push_back(Qualify(fn_cls, arg));
    }
    if (!ann.requires_held.empty() || !ann.excludes.empty()) {
      decls->annotations.push_back(std::move(ann));
    }
  };

  WalkHooks hooks;
  hooks.on_fn_body = [&](const std::string& header, uint32_t line,
                         const std::string& cls, const std::string& fn_id) {
    std::string fn_cls = cls;
    record_annotation(header, line, fn_cls, fn_id);
  };
  hooks.on_stmt = [&](const std::string& stmt, uint32_t line, int depth,
                      const std::string& cls, const std::string& fn,
                      bool at_class_scope) {
    (void)depth;
    if (!fn.empty()) return;  // statements inside bodies are pass-2 work
    record_annotation(stmt, line, cls, "");
    if (!at_class_scope) return;

    // `private:`/`public:` glue onto the next member when the label and
    // the declaration share a statement (`:` is not a delimiter).
    std::string decl = stmt;
    StripLeadingLabels(&decl);

    std::string fw = FirstWord(decl);
    static const std::set<std::string> kSkip = {
        "using",  "typedef", "friend",  "static_assert", "template",
        "public", "private", "protected", "enum", "class", "struct",
        "union",  "namespace", "extern"};
    if (kSkip.count(fw) != 0) return;

    // Mutex members: `mutable Mutex mu_ [HJ_ACQUIRED_BEFORE(x)]`.
    size_t mp = FindWord(decl, "Mutex");
    if (mp != std::string::npos && ParenDepthAt(decl, mp) == 0) {
      std::string name = IdentAt(decl, mp + 5);
      if (!name.empty() && !IsAllCaps(name) && !IsKeyword(name)) {
        MemberDecl d;
        d.cls = cls;
        d.name = name;
        d.file = path;
        d.line = line;
        decls->mutexes.push_back(d);
        for (const std::string& arg : MacroArgs(decl, "HJ_ACQUIRED_BEFORE")) {
          DeclaredEdge e;
          e.outer = Qualify(cls, name);
          e.inner = Qualify(cls, arg);
          e.file = path;
          e.line = line;
          decls->declared_edges.push_back(e);
        }
      }
      return;
    }

    // std::function / std::atomic members (top-level, i.e. not a
    // parameter of a method declaration).
    for (const char* kind : {"function", "atomic"}) {
      size_t p = decl.find(std::string("std::") + kind + "<");
      if (p == std::string::npos || ParenDepthAt(decl, p) != 0) continue;
      size_t after = SkipTemplateArgs(decl, decl.find('<', p));
      if (after == std::string::npos) continue;
      std::string name = IdentAt(decl, after);
      if (name.empty() || IsKeyword(name)) continue;
      MemberDecl d;
      d.cls = cls;
      d.name = name;
      d.file = path;
      d.line = line;
      for (const std::string& arg : MacroArgs(decl, "HJ_GUARDED_BY")) {
        d.guarded_by = Qualify(cls, arg);
      }
      if (std::strcmp(kind, "function") == 0) {
        decls->fn_members.push_back(d);
      } else {
        decls->atomics.push_back(d);
      }
      return;
    }

    // Method declaration (ident before the first top-level call paren)?
    size_t open = FirstCallParen(decl);
    if (open != std::string::npos) {
      size_t e = open;
      while (e > 0 && (decl[e - 1] == ' ' || decl[e - 1] == '\t')) --e;
      size_t b = e;
      while (b > 0 && IsIdentChar(decl[b - 1])) --b;
      std::string name = decl.substr(b, e - b);
      if (!name.empty() && !IsAllCaps(name)) return;  // a method decl
    }

    // Plain data member: used to suppress bare-use attribution for
    // atomic field names that also exist as ordinary members
    // (PageBuffer::bytes_ vs MemoryGrant::bytes_).
    std::string s = decl;
    for (char stop : {'=', '{', '['}) {
      int angle = 0;
      for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '<') ++angle;
        if (s[i] == '>' && angle > 0) --angle;
        if (s[i] == stop && angle == 0) {
          s = s.substr(0, i);
          break;
        }
      }
    }
    for (size_t p = s.find("HJ_"); p != std::string::npos;
         p = s.find("HJ_", p + 1)) {
      if (p == 0 || !IsIdentChar(s[p - 1])) {
        s = s.substr(0, p);
        break;
      }
    }
    std::string name = LastIdent(s);
    if (!name.empty() && !IsKeyword(name) &&
        !std::isdigit(static_cast<unsigned char>(name[0]))) {
      decls->plain_members.insert(name);
    }
  };
  Walk(code, hooks);
}

// ---------------------------------------------------------------------
// Pass 2: behavioral fact extraction.
// ---------------------------------------------------------------------

namespace {

struct Resolver {
  std::map<std::string, std::vector<const MemberDecl*>> mutexes;
  std::map<std::string, std::vector<const MemberDecl*>> atomics;
  std::map<std::string, std::vector<const MemberDecl*>> fn_members;
  std::map<std::string, std::vector<std::string>> requires_of;

  explicit Resolver(const DeclIndex& d) {
    for (const MemberDecl& m : d.mutexes) mutexes[m.name].push_back(&m);
    for (const MemberDecl& m : d.atomics) atomics[m.name].push_back(&m);
    for (const MemberDecl& m : d.fn_members) fn_members[m.name].push_back(&m);
    for (const FnAnnotation& a : d.annotations) {
      auto& v = requires_of[a.fn];
      v.insert(v.end(), a.requires_held.begin(), a.requires_held.end());
    }
  }

  /// Maps a member use to its qualified id. `bare` = the expression was
  /// a plain identifier (so the enclosing class is the best owner);
  /// path expressions (`w->mu`) prefer the unique declaring class, then
  /// the declaring header whose stem matches the using file.
  std::string Resolve(
      const std::map<std::string, std::vector<const MemberDecl*>>& table,
      const std::string& name, bool bare, const std::string& cls,
      const std::string& file) const {
    auto it = table.find(name);
    if (it == table.end()) return Qualify(bare ? cls : "", name);
    std::set<std::string> classes;
    for (const MemberDecl* m : it->second) classes.insert(m->cls);
    if (bare && classes.count(cls) != 0) return Qualify(cls, name);
    if (classes.size() == 1) return Qualify(*classes.begin(), name);
    std::string stem = FileStem(file);
    for (const MemberDecl* m : it->second) {
      if (FileStem(m->file) == stem) return Qualify(m->cls, name);
    }
    if (!cls.empty() && classes.count(cls) != 0) return Qualify(cls, name);
    return name;
  }
};

struct HeldLock {
  std::string id;
  std::string var;  // MutexLock variable name ("" for raw Lock())
  int depth = 0;
  bool active = true;
};

const char* const kAtomicMethods[] = {
    "load",          "store",          "exchange",
    "fetch_add",     "fetch_sub",      "fetch_and",
    "fetch_or",      "fetch_xor",      "compare_exchange_weak",
    "compare_exchange_strong"};

AtomicOp::Kind MethodKind(const std::string& m) {
  if (m == "load") return AtomicOp::Kind::kLoad;
  if (m == "store") return AtomicOp::Kind::kStore;
  return AtomicOp::Kind::kRmw;
}

/// The explicit memory_order spelled at argument depth 1 of the call
/// opening at `open` ("" when defaulted). For compare_exchange the
/// success order (the first one) is reported.
std::string CallOrder(const std::string& stmt, size_t open) {
  int d = 0;
  for (size_t i = open; i < stmt.size(); ++i) {
    if (stmt[i] == '(') ++d;
    if (stmt[i] == ')') {
      if (--d == 0) break;
    }
    if (d == 1) {
      size_t p = stmt.find("memory_order_", i);
      if (p == i) {
        size_t b = p + std::strlen("memory_order_");
        size_t e = b;
        while (e < stmt.size() && IsIdentChar(stmt[e])) ++e;
        return stmt.substr(b, e - b);
      }
    }
  }
  return "";
}

}  // namespace

void ExtractFacts(const std::string& path, const std::string& contents,
                  FactsDb* db) {
  if (ExemptFromFacts(path)) return;
  std::string code =
      StripPreprocessor(lex::BlankCommentsAndStrings(contents));
  Resolver rs(db->decls);

  std::vector<HeldLock> held;
  std::map<std::string, std::string> aliases;  // local -> member id

  auto held_ids = [&]() {
    std::vector<std::string> ids;
    for (const HeldLock& h : held) {
      if (h.active && std::find(ids.begin(), ids.end(), h.id) == ids.end()) {
        ids.push_back(h.id);
      }
    }
    return ids;
  };

  WalkHooks hooks;
  hooks.on_fn_body = [&](const std::string&, uint32_t, const std::string&,
                         const std::string&) { aliases.clear(); };
  hooks.on_scope_close = [&](int new_depth) {
    while (!held.empty() && held.back().depth > new_depth) held.pop_back();
  };
  hooks.on_stmt = [&](const std::string& stmt, uint32_t line, int depth,
                      const std::string& cls, const std::string& fn,
                      bool at_class_scope) {
    if (at_class_scope) return;
    std::string fn_cls = cls;
    if (size_t q = fn.rfind("::"); q != std::string::npos) {
      fn_cls = fn.substr(0, q);
      if (size_t q2 = fn_cls.rfind("::"); q2 != std::string::npos) {
        fn_cls = fn_cls.substr(q2 + 2);
      }
    }

    // --- MutexLock acquisitions -------------------------------------
    bool is_acquire_stmt = false;
    for (size_t p = FindWord(stmt, "MutexLock"); p != std::string::npos;
         p = FindWord(stmt, "MutexLock", p + 1)) {
      std::string var = IdentAt(stmt, p + std::strlen("MutexLock"));
      if (var.empty()) continue;  // the class itself, a ctor, a cast
      size_t open = stmt.find('(', p);
      if (open == std::string::npos) continue;
      int d = 0;
      size_t close = std::string::npos;
      for (size_t i = open; i < stmt.size(); ++i) {
        if (stmt[i] == '(') ++d;
        if (stmt[i] == ')' && --d == 0) {
          close = i;
          break;
        }
      }
      if (close == std::string::npos) continue;
      std::string expr = Strip(stmt.substr(open + 1, close - open - 1));
      bool bare = expr.find('.') == std::string::npos &&
                  expr.find("->") == std::string::npos;
      std::string id =
          rs.Resolve(rs.mutexes, LastIdent(expr), bare, fn_cls, path);
      for (const std::string& outer : held_ids()) {
        db->lock_edges.push_back({outer, id, path, line});
      }
      db->acquires.push_back({fn, id, path, line});
      held.push_back({id, var, depth, true});
      is_acquire_stmt = true;
    }

    // --- MutexLock::Unlock/Lock toggles and raw Mutex::Lock ---------
    for (const char* method : {"Unlock", "Lock"}) {
      bool activate = std::strcmp(method, "Lock") == 0;
      std::string pat = std::string(".") + method;
      for (size_t p = stmt.find(pat); p != std::string::npos;
           p = stmt.find(pat, p + 1)) {
        size_t after = p + pat.size();
        if (after >= stmt.size() || stmt[after] != '(') continue;
        std::string obj = LastIdent(stmt.substr(0, p));
        if (obj.empty()) continue;
        bool toggled = false;
        for (auto it = held.rbegin(); it != held.rend(); ++it) {
          if (it->var == obj) {
            it->active = activate;
            toggled = true;
            break;
          }
        }
        if (toggled || is_acquire_stmt) continue;
        // A raw Lock/Unlock on a known mutex member (fixture idiom).
        if (rs.mutexes.count(obj) != 0) {
          std::string id = rs.Resolve(rs.mutexes, obj, true, fn_cls, path);
          if (activate) {
            for (const std::string& outer : held_ids()) {
              db->lock_edges.push_back({outer, id, path, line});
            }
            db->acquires.push_back({fn, id, path, line});
            held.push_back({id, "", depth, true});
          } else {
            for (auto it = held.rbegin(); it != held.rend(); ++it) {
              if (it->id == id) {
                held.erase(std::next(it).base());
                break;
              }
            }
          }
        }
      }
    }

    // --- Local aliases of stored callbacks --------------------------
    if (stmt.find("std::function") == std::string::npos) {
      for (size_t i = 0; i < stmt.size(); ++i) {
        if (stmt[i] != '=') continue;
        char prev = i > 0 ? stmt[i - 1] : '\0';
        char next = i + 1 < stmt.size() ? stmt[i + 1] : '\0';
        if (prev == '=' || next == '=' || prev == '<' || prev == '>' ||
            prev == '!' || prev == '+' || prev == '-' || prev == '*' ||
            prev == '/' || prev == '&' || prev == '|' || prev == '^') {
          continue;
        }
        std::string lhs = LastIdent(stmt.substr(0, i));
        std::string rhs = Strip(stmt.substr(i + 1));
        if (rhs.rfind("std::move(", 0) == 0 && rhs.back() == ')') {
          rhs = rhs.substr(std::strlen("std::move("),
                           rhs.size() - std::strlen("std::move(") - 1);
        }
        if (rhs.find('(') != std::string::npos ||
            rhs.find('{') != std::string::npos) {
          break;
        }
        std::string rname = LastIdent(rhs);
        if (lhs.empty() || rname.empty()) break;
        if (aliases.count(rname) != 0) {
          aliases[lhs] = aliases[rname];
        } else if (rs.fn_members.count(rname) != 0) {
          bool bare = rhs.find('.') == std::string::npos &&
                      rhs.find("->") == std::string::npos;
          aliases[lhs] =
              rs.Resolve(rs.fn_members, rname, bare, fn_cls, path);
        }
        break;
      }
    }

    // --- Stored-callback invocations --------------------------------
    if (stmt.find("std::function") == std::string::npos) {
      auto scan_callable = [&](const std::string& name,
                               const std::string& member_id,
                               const std::string& alias) {
        for (size_t p = FindWord(stmt, name); p != std::string::npos;
             p = FindWord(stmt, name, p + name.size())) {
          size_t after = p + name.size();
          while (after < stmt.size() &&
                 (stmt[after] == ' ' || stmt[after] == '\t')) {
            ++after;
          }
          if (after >= stmt.size() || stmt[after] != '(') continue;
          std::string id = member_id;
          if (id.empty()) {
            bool bare = p == 0 || (stmt[p - 1] != '.' && stmt[p - 1] != '>');
            id = rs.Resolve(rs.fn_members, name, bare, fn_cls, path);
          }
          db->callback_calls.push_back(
              {fn, id, alias, held_ids(), path, line});
        }
      };
      for (const auto& [name, decl] : rs.fn_members) {
        (void)decl;
        scan_callable(name, "", "");
      }
      for (const auto& [local, member_id] : aliases) {
        if (rs.fn_members.count(local) == 0) {
          scan_callable(local, member_id, local);
        }
      }
    }

    // --- Unqualified calls under held locks (interprocedural seed) --
    std::vector<std::string> effective = held_ids();
    if (auto it = rs.requires_of.find(fn); it != rs.requires_of.end()) {
      for (const std::string& r : it->second) {
        if (std::find(effective.begin(), effective.end(), r) ==
            effective.end()) {
          effective.push_back(r);
        }
      }
    }
    if (!effective.empty() && !is_acquire_stmt) {
      for (size_t i = 0; i + 1 < stmt.size(); ++i) {
        if (!IsIdentChar(stmt[i]) || (i > 0 && IsIdentChar(stmt[i - 1]))) {
          continue;
        }
        size_t e = i;
        while (e < stmt.size() && IsIdentChar(stmt[e])) ++e;
        if (e >= stmt.size() || stmt[e] != '(') continue;
        char prev = i > 0 ? stmt[i - 1] : '\0';
        if (prev == '.' || prev == '>' || prev == ':') continue;
        std::string callee = stmt.substr(i, e - i);
        if (IsKeyword(callee) || IsAllCaps(callee) ||
            callee == "MutexLock" || callee == "CondVar" ||
            std::isdigit(static_cast<unsigned char>(callee[0]))) {
          continue;
        }
        db->calls_under_lock.push_back(
            {fn, fn_cls, callee, effective, path, line});
      }
    }

    // --- Atomic operations ------------------------------------------
    bool is_atomic_decl = stmt.find("std::atomic") != std::string::npos;
    for (const auto& [name, decl_list] : rs.atomics) {
      (void)decl_list;
      for (size_t p = FindWord(stmt, name); p != std::string::npos;
           p = FindWord(stmt, name, p + name.size())) {
        char prev_ns = '\0';
        for (size_t b = p; b > 0;) {
          --b;
          if (stmt[b] != ' ' && stmt[b] != '\t') {
            prev_ns = stmt[b];
            break;
          }
        }
        size_t after = p + name.size();
        char next = after < stmt.size() ? stmt[after] : '\0';
        bool bare_path = prev_ns != '.' && prev_ns != '>';
        if (next == '.') {
          // Method op: the call itself proves the field is atomic.
          std::string method = IdentAt(stmt, after + 1);
          bool known = false;
          for (const char* m : kAtomicMethods) {
            if (method == m) known = true;
          }
          if (!known) continue;
          size_t open = stmt.find('(', after + 1);
          if (open == std::string::npos) continue;
          AtomicOp op;
          op.field_id =
              rs.Resolve(rs.atomics, name, bare_path, fn_cls, path);
          op.kind = MethodKind(method);
          op.order = CallOrder(stmt, open);
          op.file = path;
          op.line = line;
          db->atomic_ops.push_back(op);
          continue;
        }
        // Bare uses: only when the name is unambiguously an atomic
        // (never also a plain member) and this is not its declaration.
        if (is_atomic_decl || db->decls.plain_members.count(name) != 0) {
          continue;
        }
        if (prev_ns == '&') continue;  // address taken / && chain
        size_t na = after;
        while (na < stmt.size() && (stmt[na] == ' ' || stmt[na] == '\t')) {
          ++na;
        }
        char c = na < stmt.size() ? stmt[na] : '\0';
        char c2 = na + 1 < stmt.size() ? stmt[na + 1] : '\0';
        AtomicOp op;
        op.field_id = rs.Resolve(rs.atomics, name, bare_path, fn_cls, path);
        op.file = path;
        op.line = line;
        if (c == '=' && c2 != '=') {
          op.kind = AtomicOp::Kind::kAssign;
        } else if ((c == '+' && c2 == '+') || (c == '-' && c2 == '-') ||
                   ((c == '+' || c == '-' || c == '|' || c == '&' ||
                     c == '^') &&
                    c2 == '=')) {
          op.kind = AtomicOp::Kind::kRmw;
        } else if ((prev_ns == '+' || prev_ns == '-') &&
                   stmt.find(std::string(2, prev_ns)) != std::string::npos) {
          op.kind = AtomicOp::Kind::kRmw;  // prefix ++x_ / --x_
        } else if (c == ';' || c == ')' || c == ']' || c == '?' ||
                   c == '<' || c == '>' || c == '!' ||
                   (c == '=' && c2 == '=') || c == '+' || c == '-' ||
                   c == '*' || c == '/' || c == '%' || c == '|') {
          op.kind = AtomicOp::Kind::kImplicitLoad;
        } else {
          continue;  // ctor init, argument pass, brace init, ...
        }
        db->atomic_ops.push_back(op);
      }
    }
  };
  Walk(code, hooks);
}

// ---------------------------------------------------------------------
// Merged acquisition graph.
// ---------------------------------------------------------------------

std::vector<ObservedEdge> CollectLockEdges(const FactsDb& db) {
  std::vector<ObservedEdge> out;
  std::set<std::pair<std::string, std::string>> seen;
  auto add = [&](const std::string& outer, const std::string& inner,
                 const char* via, const std::string& file, uint32_t line) {
    if (outer.empty() || inner.empty()) return;
    if (!seen.insert({outer, inner}).second) return;
    out.push_back({outer, inner, via, file, line});
  };
  for (const LockEdge& e : db.lock_edges) {
    add(e.outer, e.inner, "nesting", e.file, e.line);
  }
  for (const DeclaredEdge& e : db.decls.declared_edges) {
    add(e.outer, e.inner, "HJ_ACQUIRED_BEFORE", e.file, e.line);
  }
  // A function annotated as holding M that acquires N: M -> N, even
  // though its definition never spells the outer acquisition.
  std::multimap<std::string, const FnAnnotation*> ann_by_fn;
  for (const FnAnnotation& a : db.decls.annotations) {
    ann_by_fn.insert({a.fn, &a});
  }
  for (const FnAcquire& a : db.acquires) {
    auto [b, e] = ann_by_fn.equal_range(a.fn);
    for (auto it = b; it != e; ++it) {
      for (const std::string& outer : it->second->requires_held) {
        add(outer, a.mutex_id, "HJ_REQUIRES", a.file, a.line);
      }
    }
  }
  // One-level interprocedural composition: an unqualified call made
  // under a lock, to a same-class method (or free function) that
  // acquires — held -> acquired.
  std::multimap<std::string, const FnAcquire*> acq_by_fn;
  for (const FnAcquire& a : db.acquires) {
    acq_by_fn.insert({a.fn, &a});
  }
  for (const CallUnderLock& c : db.calls_under_lock) {
    for (const std::string& target :
         {Qualify(c.cls, c.callee), c.callee}) {
      auto [b, e] = acq_by_fn.equal_range(target);
      for (auto it = b; it != e; ++it) {
        for (const std::string& outer : c.held) {
          add(outer, it->second->mutex_id, "call", c.file, c.line);
        }
      }
      if (!c.cls.empty() && b != e) break;  // same-class match wins
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------

Manifest ParseManifest(const std::string& contents) {
  Manifest m;
  std::vector<std::string> lines = lex::SplitLines(contents);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Strip(line);
    if (line.empty()) continue;
    size_t arrow = line.find("->");
    if (arrow == std::string::npos) {
      m.parse_errors.emplace_back(uint32_t(i + 1),
                                  "expected `Outer -> Inner`, got: " + line);
      continue;
    }
    Manifest::Entry e;
    e.outer = Strip(line.substr(0, arrow));
    e.inner = Strip(line.substr(arrow + 2));
    e.line = uint32_t(i + 1);
    if (e.outer.empty() || e.inner.empty()) {
      m.parse_errors.emplace_back(uint32_t(i + 1),
                                  "empty side in lock-order edge: " + line);
      continue;
    }
    m.edges.push_back(std::move(e));
  }
  return m;
}

// ---------------------------------------------------------------------
// Rule: lock-order-cycle.
// ---------------------------------------------------------------------

std::vector<Finding> CheckLockOrder(const FactsDb& db,
                                    const Manifest& manifest,
                                    const std::string& manifest_path,
                                    bool have_manifest) {
  const char* kRule = "lock-order-cycle";
  std::vector<Finding> findings;
  std::vector<ObservedEdge> observed = CollectLockEdges(db);

  for (const auto& [line, msg] : manifest.parse_errors) {
    findings.push_back({kRule, manifest_path, line, msg});
  }

  std::set<std::pair<std::string, std::string>> declared;
  for (const Manifest::Entry& e : manifest.edges) {
    declared.insert({e.outer, e.inner});
  }
  std::set<std::pair<std::string, std::string>> observed_pairs;

  for (const ObservedEdge& e : observed) {
    observed_pairs.insert({e.outer, e.inner});
    if (e.outer == e.inner) {
      findings.push_back(
          {kRule, e.file, e.line,
           "mutex " + e.outer +
               " is acquired while already held (via " + e.via +
               ") — self-deadlock on a non-reentrant Mutex"});
      continue;
    }
    if (declared.count({e.outer, e.inner}) == 0) {
      findings.push_back(
          {kRule, e.file, e.line,
           "lock-order edge " + e.outer + " -> " + e.inner + " (via " +
               e.via + ") is not declared in " + manifest_path +
               (have_manifest
                    ? " — declare it so the acquisition order stays "
                      "reviewable"
                    : " (no manifest found) — check one in so the "
                      "acquisition order stays reviewable")});
    }
  }
  if (have_manifest) {
    for (const Manifest::Entry& e : manifest.edges) {
      if (observed_pairs.count({e.outer, e.inner}) == 0) {
        findings.push_back(
            {kRule, manifest_path, e.line,
             "manifest declares " + e.outer + " -> " + e.inner +
                 " but no code path establishes that order anymore — "
                 "remove the stale entry"});
      }
    }
  }

  // Cycle detection over observed ∪ declared edges (a manifest that
  // declares both directions is itself an error worth catching).
  std::map<std::string, std::set<std::string>> adj;
  std::map<std::pair<std::string, std::string>, std::pair<std::string, uint32_t>>
      site;
  for (const ObservedEdge& e : observed) {
    if (e.outer == e.inner) continue;  // reported above
    adj[e.outer].insert(e.inner);
    adj.emplace(e.inner, std::set<std::string>());
    site.emplace(std::make_pair(e.outer, e.inner),
                 std::make_pair(e.file, e.line));
  }
  for (const Manifest::Entry& e : manifest.edges) {
    if (e.outer == e.inner) continue;
    adj[e.outer].insert(e.inner);
    adj.emplace(e.inner, std::set<std::string>());
    site.emplace(std::make_pair(e.outer, e.inner),
                 std::make_pair(manifest_path, e.line));
  }

  std::map<std::string, int> color;
  std::vector<std::string> path;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    path.push_back(u);
    for (const std::string& v : adj[u]) {
      if (color[v] == 1) {
        auto it = std::find(path.begin(), path.end(), v);
        std::vector<std::string> cyc(it, path.end());
        // Normalize: rotate so the smallest node leads, for stable
        // dedup of the same cycle found from different entry points.
        size_t min_i = 0;
        for (size_t i = 1; i < cyc.size(); ++i) {
          if (cyc[i] < cyc[min_i]) min_i = i;
        }
        std::rotate(cyc.begin(), cyc.begin() + long(min_i), cyc.end());
        std::string desc = cyc.front();
        for (size_t i = 1; i < cyc.size(); ++i) desc += " -> " + cyc[i];
        desc += " -> " + cyc.front();
        if (reported.insert(desc).second) {
          auto s = site.find({cyc.front(), cyc[1 % cyc.size()]});
          std::string file = s != site.end() ? s->second.first : cyc.front();
          uint32_t line = s != site.end() ? s->second.second : 0;
          findings.push_back(
              {kRule, file, line,
               "lock-order cycle: " + desc +
                   " — these mutexes are acquired in inconsistent "
                   "order; some interleaving deadlocks"});
        }
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    path.pop_back();
    color[u] = 2;
  };
  for (const auto& [node, _] : adj) {
    (void)_;
    if (color[node] == 0) dfs(node);
  }
  return findings;
}

// ---------------------------------------------------------------------
// Rule: callback-under-lock.
// ---------------------------------------------------------------------

std::vector<Finding> CheckCallbackUnderLock(const FactsDb& db) {
  const char* kRule = "callback-under-lock";
  std::vector<Finding> findings;
  std::multimap<std::string, const FnAnnotation*> ann_by_fn;
  for (const FnAnnotation& a : db.decls.annotations) {
    ann_by_fn.insert({a.fn, &a});
  }
  for (const CallbackCall& c : db.callback_calls) {
    std::vector<std::string> held = c.held;
    auto [b, e] = ann_by_fn.equal_range(c.fn);
    for (auto it = b; it != e; ++it) {
      for (const std::string& r : it->second->requires_held) {
        if (std::find(held.begin(), held.end(), r) == held.end()) {
          held.push_back(r);
        }
      }
    }
    if (held.empty()) continue;
    std::string locks = held.front();
    for (size_t i = 1; i < held.size(); ++i) locks += ", " + held[i];
    std::string what = c.alias.empty()
                           ? "std::function member " + c.member_id
                           : "local `" + c.alias + "` (a snapshot of " +
                                 c.member_id + ")";
    findings.push_back(
        {kRule, c.file, c.line,
         what + " is invoked while holding " + locks +
             " — an arbitrary closure under a lock invites deadlock "
             "(it may take " + locks +
             " again, or any mutex ordered before it); copy it under "
             "the lock, leave the scope, then invoke the copy"});
  }
  return findings;
}

// ---------------------------------------------------------------------
// Rule: atomic-handoff-discipline.
// ---------------------------------------------------------------------

std::vector<Finding> CheckAtomicHandoff(const FactsDb& db) {
  const char* kRule = "atomic-handoff-discipline";
  std::vector<Finding> findings;
  std::map<std::string, std::vector<const AtomicOp*>> by_field;
  for (const AtomicOp& op : db.atomic_ops) {
    by_field[op.field_id].push_back(&op);
  }
  for (const auto& [field, ops] : by_field) {
    bool has_release_store = false;
    bool has_acquire_load = false;
    for (const AtomicOp* op : ops) {
      bool store_side = op->kind == AtomicOp::Kind::kStore ||
                        op->kind == AtomicOp::Kind::kRmw;
      bool load_side = op->kind == AtomicOp::Kind::kLoad ||
                       op->kind == AtomicOp::Kind::kRmw;
      if (store_side &&
          (op->order == "release" || op->order == "acq_rel")) {
        has_release_store = true;
      }
      if (load_side && (op->order == "acquire" || op->order == "acq_rel" ||
                        op->order == "seq_cst")) {
        has_acquire_load = true;
      }
    }
    if (!has_release_store && !has_acquire_load) continue;  // not a handoff

    const AtomicOp* first_release = nullptr;
    const AtomicOp* first_acquire = nullptr;
    for (const AtomicOp* op : ops) {
      if (op->order.empty()) {
        std::string what;
        switch (op->kind) {
          case AtomicOp::Kind::kAssign:
            what = "bare operator= (a seq-cst store by default)";
            break;
          case AtomicOp::Kind::kImplicitLoad:
            what = "implicit conversion read (a seq-cst load by default)";
            break;
          case AtomicOp::Kind::kLoad:
            what = ".load() with defaulted memory order";
            break;
          case AtomicOp::Kind::kStore:
            what = ".store() with defaulted memory order";
            break;
          case AtomicOp::Kind::kRmw:
            what = "read-modify-write with defaulted memory order";
            break;
        }
        findings.push_back(
            {kRule, op->file, op->line,
             field + " is a cross-thread handoff field (it has "
                     "release/acquire traffic elsewhere) but this site "
                     "uses " +
                 what +
                 " — spell the order explicitly "
                 "(memory_order_release store / memory_order_acquire "
                 "load, or memory_order_relaxed when no publication "
                 "rides on it)"});
      }
      if ((op->order == "release" || op->order == "acq_rel") &&
          first_release == nullptr) {
        first_release = op;
      }
      if ((op->order == "acquire" || op->order == "acq_rel") &&
          first_acquire == nullptr) {
        first_acquire = op;
      }
    }
    if (!has_release_store && first_acquire != nullptr) {
      findings.push_back(
          {kRule, first_acquire->file, first_acquire->line,
           field + " is loaded with memory_order_acquire but no "
                   "release store publishes it anywhere in the program "
                   "— the acquire synchronizes with nothing"});
    }
    if (!has_acquire_load && first_release != nullptr) {
      findings.push_back(
          {kRule, first_release->file, first_release->line,
           field + " is stored with memory_order_release but nothing "
                   "loads it with memory_order_acquire — the intended "
                   "consumer reads stale or unordered state"});
    }
  }
  return findings;
}

}  // namespace facts
}  // namespace hjlint
}  // namespace hashjoin
