#ifndef HASHJOIN_TOOLS_HJLINT_FACTS_H_
#define HASHJOIN_TOOLS_HJLINT_FACTS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "hjlint/lint.h"

namespace hashjoin {
namespace hjlint {

/// Shared lexical layer. hjlint works on a "code view" of each file:
/// comments and string/char literals blanked to spaces so line/column
/// positions survive. The per-file rules (lint.cc) and the whole-program
/// facts engine (facts.cc) share these primitives.
namespace lex {

std::string BlankCommentsAndStrings(const std::string& src);
std::vector<std::string> SplitLines(const std::string& text);
bool IsIdentChar(char c);
std::string Strip(const std::string& s);

/// Position of identifier `word` in `line` at or after `from`, with
/// word boundaries on both sides; npos when absent.
size_t FindWord(const std::string& line, const std::string& word,
                size_t from = 0);

}  // namespace lex

/// ---------------------------------------------------------------------
/// Whole-program facts engine (hjlint v2).
///
/// Pass 1 (CollectDecls, run over every file first) builds a
/// declaration index: which names are Mutex members, std::function
/// members, std::atomic fields, plain data members (for ambiguity
/// suppression), plus HJ_REQUIRES/HJ_EXCLUDES annotations and
/// HJ_ACQUIRED_BEFORE edges. Pass 2 (ExtractFacts, run over every file
/// again with the full index) extracts behavioral facts: MutexLock
/// nesting edges, per-function mutex acquisitions, stored-callback
/// invocation sites with the lexically-held lock set, and atomic
/// load/store sites with their explicit memory_order. The three
/// whole-program rules (CheckLockOrder / CheckCallbackUnderLock /
/// CheckAtomicHandoff) then run over the merged database.
///
/// Mutex identity is the qualified member name `Class::member` —
/// lock *order* in this codebase is a property of the member, not the
/// instance (every MemoryGrant's listener_mu_ nests inside the broker's
/// mu_ the same way), which is exactly the granularity a global
/// acquisition-order graph needs.
/// ---------------------------------------------------------------------
namespace facts {

/// A data-member declaration attributed to its innermost enclosing
/// class/struct ("" for namespace scope). `guarded_by` carries the
/// HJ_GUARDED_BY argument when present (resolved to a qualified id).
struct MemberDecl {
  std::string cls;
  std::string name;
  std::string guarded_by;
  std::string file;
  uint32_t line = 0;
};

/// HJ_REQUIRES/HJ_EXCLUDES on a function declaration or definition.
/// `fn` is the qualified id ("Class::Fn", or "Fn" for free functions);
/// the mutex arguments are resolved to qualified ids.
struct FnAnnotation {
  std::string fn;
  std::vector<std::string> requires_held;
  std::vector<std::string> excludes;
  std::string file;
  uint32_t line = 0;
};

/// HJ_ACQUIRED_BEFORE(inner) on a Mutex member declaration: a
/// programmer-declared acquisition-order edge.
struct DeclaredEdge {
  std::string outer;
  std::string inner;
  std::string file;
  uint32_t line = 0;
};

struct DeclIndex {
  std::vector<MemberDecl> mutexes;
  std::vector<MemberDecl> fn_members;  // std::function<...> members
  std::vector<MemberDecl> atomics;     // std::atomic<...> fields
  /// Names that are also declared as plain (non-atomic) data members
  /// somewhere in the program. Bare-use detection for atomics is
  /// suppressed for these names: `bytes_ = nullptr` on a plain
  /// PageBuffer must not be confused with MemoryGrant's atomic bytes_.
  std::set<std::string> plain_members;
  std::vector<FnAnnotation> annotations;
  std::vector<DeclaredEdge> declared_edges;
};

/// Observed while `outer` was lexically held, `inner` was acquired.
struct LockEdge {
  std::string outer;
  std::string inner;
  std::string file;
  uint32_t line = 0;
};

/// Function `fn` acquires `mutex_id` somewhere in its body (via
/// MutexLock or a raw Mutex::Lock on a known mutex member).
struct FnAcquire {
  std::string fn;
  std::string mutex_id;
  std::string file;
  uint32_t line = 0;
};

/// An invocation of a declared std::function member (directly, or via a
/// local alias copied from one). `held` is the lexically-held lock set
/// at the call; HJ_REQUIRES context is joined in by the check, so a
/// snapshot copied under the lock and invoked after the scope closes
/// has an empty effective set and passes.
struct CallbackCall {
  std::string fn;         // enclosing function (qualified)
  std::string member_id;  // qualified std::function member
  std::string alias;      // local alias name when invoked via one ("")
  std::vector<std::string> held;
  std::string file;
  uint32_t line = 0;
};

/// An unqualified call made while locks are (lexically or by
/// HJ_REQUIRES) held — the interprocedural seed: if the callee is a
/// method of the same class (or a free function) that acquires a
/// mutex, each held mutex precedes that acquisition in the global
/// order graph.
struct CallUnderLock {
  std::string fn;      // enclosing function (qualified)
  std::string cls;     // enclosing class of the caller ("" if free)
  std::string callee;  // unqualified callee name
  std::vector<std::string> held;
  std::string file;
  uint32_t line = 0;
};

struct AtomicOp {
  enum class Kind {
    kLoad,          // .load(...)
    kStore,         // .store(...)
    kRmw,           // fetch_*/exchange/compare_exchange/++/--/op=
    kAssign,        // bare operator= (seq-cst store by default)
    kImplicitLoad,  // bare value use (seq-cst load by default)
  };
  std::string field_id;  // qualified atomic field
  Kind kind = Kind::kLoad;
  std::string order;  // "relaxed", "release", ... ; "" when defaulted
  std::string file;
  uint32_t line = 0;
};

struct FactsDb {
  DeclIndex decls;
  std::vector<LockEdge> lock_edges;
  std::vector<FnAcquire> acquires;
  std::vector<CallbackCall> callback_calls;
  std::vector<CallUnderLock> calls_under_lock;
  std::vector<AtomicOp> atomic_ops;
};

/// Pass 1: harvest declarations from one file into the index.
void CollectDecls(const std::string& path, const std::string& contents,
                  DeclIndex* decls);

/// Pass 2: extract behavioral facts from one file. `db->decls` must
/// already hold the full program's declaration index.
void ExtractFacts(const std::string& path, const std::string& contents,
                  FactsDb* db);

/// One edge of the merged acquisition graph, with a representative
/// observation site and how the edge was derived.
struct ObservedEdge {
  std::string outer;
  std::string inner;
  std::string via;  // "nesting", "HJ_REQUIRES", "HJ_ACQUIRED_BEFORE", "call"
  std::string file;
  uint32_t line = 0;
};

/// The merged, deduplicated acquisition graph: lexical nestings +
/// HJ_ACQUIRED_BEFORE declarations + HJ_REQUIRES-context acquisitions
/// (a function annotated as holding M that acquires N yields M -> N,
/// even though the definition never spells the outer lock) + one-level
/// interprocedural composition through unqualified same-class calls.
std::vector<ObservedEdge> CollectLockEdges(const FactsDb& db);

/// The checked-in lock-order manifest (tools/hjlint/lock_order.txt):
/// one `Outer::m -> Inner::m` edge per line, `#` comments allowed.
struct Manifest {
  struct Entry {
    std::string outer;
    std::string inner;
    uint32_t line = 0;
  };
  std::vector<Entry> edges;
  std::vector<std::pair<uint32_t, std::string>> parse_errors;
};
Manifest ParseManifest(const std::string& contents);

/// Rule lock-order-cycle. Errors: any cycle in the merged graph
/// (including a self-edge — re-acquiring a held mutex), an observed
/// edge not declared in the manifest, a manifest entry no longer
/// observed (stale), and manifest parse errors. `manifest_path` is the
/// display path for manifest-anchored findings; when `have_manifest`
/// is false every observed edge is reported as undeclared.
std::vector<Finding> CheckLockOrder(const FactsDb& db,
                                    const Manifest& manifest,
                                    const std::string& manifest_path,
                                    bool have_manifest);

/// Rule callback-under-lock: invoking a stored std::function member
/// while any Mutex is held (lexically or via HJ_REQUIRES). The
/// snapshot-under-lock/invoke-outside idiom passes because the
/// invocation of the copied local happens with an empty held set.
std::vector<Finding> CheckCallbackUnderLock(const FactsDb& db);

/// Rule atomic-handoff-discipline: a field with any release-store or
/// acquire-load anywhere in the program is a cross-thread handoff
/// field; every operation on it must spell an explicit memory_order
/// (bare operator=/implicit loads are seq-cst-by-default errors), and
/// the release/acquire pairing must be two-sided.
std::vector<Finding> CheckAtomicHandoff(const FactsDb& db);

}  // namespace facts
}  // namespace hjlint
}  // namespace hashjoin

#endif  // HASHJOIN_TOOLS_HJLINT_FACTS_H_
