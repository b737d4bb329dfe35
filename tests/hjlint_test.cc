// Rule-level fixtures for tools/hjlint: each known-bad snippet must
// fire exactly its rule, the idiomatic kernels must stay silent, and
// the real source tree must lint clean (the same invariant `ctest -L
// lint` enforces through the hjlint_tree test, checked here through the
// library API so a regression pinpoints the rule).

#include "hjlint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "hjlint/facts.h"

namespace hashjoin {
namespace hjlint {
namespace {

std::vector<Finding> Lint(const std::string& path, const std::string& src) {
  return LintFile(path, src, {});
}

bool HasRule(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// --- spp-ring-power-of-two ------------------------------------------

TEST(HjlintRingTest, FlagsRingWithoutPowerOfTwoRounding) {
  // The classic bug: sizing the ring exactly (stages*D + 1 slots) makes
  // states[j & mask] alias wrong slots whenever the size is not a power
  // of two.
  auto fs = Lint("src/join/bad.h",
                "void Kernel() {\n"
                "  const uint64_t ring = kStages * d + 1;\n"
                "  const uint64_t mask = ring - 1;\n"
                "}\n");
  ASSERT_TRUE(HasRule(fs, "spp-ring-power-of-two"));
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(HjlintRingTest, FlagsRingWithoutPlusOneSlack) {
  auto fs = Lint("src/join/bad.h",
                "  const uint64_t ring = NextPowerOfTwo(kStages * d);\n");
  EXPECT_TRUE(HasRule(fs, "spp-ring-power-of-two"));
}

TEST(HjlintRingTest, FlagsMaskThatIsNotRingMinusOne) {
  auto fs = Lint("src/join/bad.h",
                "  const uint64_t ring = NextPowerOfTwo(kStages * d + 1);\n"
                "  const uint64_t mask = ring;\n");
  ASSERT_TRUE(HasRule(fs, "spp-ring-power-of-two"));
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(HjlintRingTest, AcceptsTheProjectIdiom) {
  auto fs = Lint("src/join/good.h",
                "  const uint64_t ring = NextPowerOfTwo(kStages * d + 1);\n"
                "  const uint64_t mask = ring - 1;\n"
                "  std::vector<ProbeState> states(ring);\n");
  EXPECT_TRUE(fs.empty());
}

TEST(HjlintRingTest, IgnoresComparisonsAndComments) {
  auto fs = Lint("src/join/good.h",
                "  // ring = whatever, this is prose\n"
                "  if (ring == 8) { }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(HjlintRingTest, ExemptsCoroutineChains) {
  // Inside a co_await function the in-flight state lives in coroutine
  // frames; a `ring` there is round-robin scheduler bookkeeping, never
  // the §5.3 bit-masked state ring, so the sizing idiom does not apply.
  auto fs = Lint("src/join/coro.h",
                "KernelCoro Chain(State& st, uint32_t width) {\n"
                "  uint32_t ring = width;\n"
                "  co_await KernelCoro::NextStage{};\n"
                "  use(ring);\n"
                "}\n");
  EXPECT_TRUE(fs.empty());
}

// --- prefetch-stage-discipline --------------------------------------

TEST(HjlintPrefetchTest, FlagsDerefInSameStage) {
  // Prefetch immediately followed by the dereference: the miss has no
  // work to hide behind (the §3 pointer-chasing anti-pattern).
  auto fs = Lint("src/join/bad.h",
                "inline void Stage1(State& st) {\n"
                "  mm.Prefetch(st.bucket, sizeof(BucketHeader));\n"
                "  uint32_t n = st.bucket->count;\n"
                "}\n");
  ASSERT_TRUE(HasRule(fs, "prefetch-stage-discipline"));
  EXPECT_EQ(fs[0].line, 3u);
}

TEST(HjlintPrefetchTest, FlagsBuiltinPrefetchDeref) {
  auto fs = Lint("src/join/bad.h",
                "void F(Node* p) {\n"
                "  __builtin_prefetch(p, 0, 3);\n"
                "  use(*p);\n"
                "}\n");
  EXPECT_TRUE(HasRule(fs, "prefetch-stage-discipline"));
}

TEST(HjlintPrefetchTest, AcceptsPrefetchConsumedInLaterStage) {
  // The project idiom: stage k prefetches, the *next function* (stage
  // k+1, a separate top-level definition) dereferences.
  auto fs = Lint("src/join/good.h",
                "inline void Stage1(State& st) {\n"
                "  mm.Prefetch(st.bucket, sizeof(BucketHeader));\n"
                "}\n"
                "inline void Stage2(State& st) {\n"
                "  uint32_t n = st.bucket->count;\n"
                "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(HjlintPrefetchTest, AcceptsCoAwaitAsStageBoundary) {
  // The coroutine idiom: prefetch, suspend, dereference after resuming —
  // the co_await is the stage boundary, other chains' work hides the
  // miss while this one is suspended.
  auto fs = Lint("src/join/coro_good.h",
                "KernelCoro Chain(Ctx& ctx, State& st) {\n"
                "  mm.Prefetch(st.bucket, sizeof(BucketHeader));\n"
                "  co_await KernelCoro::NextStage{};\n"
                "  uint32_t n = st.bucket->count;\n"
                "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(HjlintPrefetchTest, FlagsCoroutineDerefBeforeSuspending) {
  // Known-bad coroutine: dereferencing the prefetched address before
  // the next co_await is the same just-in-time anti-pattern — the chain
  // never suspended, so nothing overlapped the miss.
  auto fs = Lint("src/join/coro_bad.h",
                "KernelCoro Chain(Ctx& ctx, State& st) {\n"
                "  mm.Prefetch(st.bucket, sizeof(BucketHeader));\n"
                "  uint32_t n = st.bucket->count;\n"
                "  co_await KernelCoro::NextStage{};\n"
                "}\n");
  EXPECT_TRUE(HasRule(fs, "prefetch-stage-discipline"));
}

TEST(HjlintPrefetchTest, IgnoresDeclarationsAndRanges) {
  auto fs = Lint("src/mem/prefetch.h",
                "inline void PrefetchRead(const void* addr) {\n"
                "  __builtin_prefetch(addr, 0, 3);\n"
                "}\n"
                "inline void PrefetchRange(const void* addr, size_t n) {\n"
                "  const uint8_t* p = (const uint8_t*)addr;\n"
                "  for (; p < end; p += 64) PrefetchRead(p);\n"
                "}\n");
  EXPECT_TRUE(fs.empty());
}

// --- raw-mutex-primitive ---------------------------------------------

TEST(HjlintRawMutexTest, FlagsStdMutexMemberUnderSrc) {
  auto fs = Lint("src/sched/bad.h",
                "class C {\n"
                "  std::mutex mu_;\n"
                "  std::condition_variable cv_;\n"
                "};\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "raw-mutex-primitive");
  EXPECT_EQ(fs[0].line, 2u);
  EXPECT_EQ(fs[1].line, 3u);
}

TEST(HjlintRawMutexTest, FlagsRaiiHelpersToo) {
  auto fs = Lint("src/storage/bad.cc",
                "void F() { std::lock_guard<std::mutex> l(mu_); }\n");
  EXPECT_TRUE(HasRule(fs, "raw-mutex-primitive"));
}

TEST(HjlintRawMutexTest, ExemptsTheWrapperItself) {
  auto fs = Lint("src/util/mutex.h", "  std::mutex mu_;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(HjlintRawMutexTest, IgnoresFilesOutsideSrc) {
  // Tests and benches may use raw primitives (e.g. to provoke races on
  // purpose); the annotated layer is mandatory for src/ only.
  auto fs = Lint("tests/sched_test.cc", "  std::mutex mu;\n");
  EXPECT_TRUE(fs.empty());
}

// --- bench-schema-sync -----------------------------------------------

TEST(HjlintBenchSchemaTest, FlagsKeyTheReporterNeverEmits) {
  auto fs = LintBenchSchema(
      "tools/bench_diff.cc",
      "  const JsonValue* v = rec.Find(\"wall_sconds\");\n",  // typo
      "src/perf/bench_reporter.cc",
      "  record.Set(\"wall_seconds\", std::move(w));\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "bench-schema-sync");
  EXPECT_NE(fs[0].message.find("wall_sconds"), std::string::npos);
}

TEST(HjlintBenchSchemaTest, ChecksEveryDottedPathComponent) {
  auto fs = LintBenchSchema(
      "tools/bench_diff.cc",
      "  const JsonValue* v = rec.FindPath(\"wall_seconds.median\");\n",
      "src/perf/bench_reporter.cc",
      "  obj.Set(\"wall_seconds\", JsonValue());\n");  // no "median"
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("median"), std::string::npos);
}

TEST(HjlintBenchSchemaTest, AcceptsKeysEmittedByBenchDrivers) {
  // Per-bench config keys ("scheme", "theta", ...) are Set() by the
  // drivers, not the reporter envelope; the extra-emitter contents
  // stand in for bench/*.cc here.
  auto fs = LintBenchSchema(
      "tools/bench_diff.cc",
      "  const JsonValue* s = config->Find(\"scheme\");\n",
      "src/perf/bench_reporter.cc", "  r.Set(\"name\", n);\n",
      {"  config.Set(\"scheme\", SchemeName(scheme));\n"});
  EXPECT_TRUE(fs.empty());
}

TEST(HjlintBenchSchemaTest, AcceptsMatchingSchemas) {
  auto fs = LintBenchSchema(
      "tools/bench_diff.cc",
      "  rec.Find(\"name\");\n  rec.FindPath(\"wall_seconds.median\");\n",
      "src/perf/bench_reporter.cc",
      "  r.Set(\"name\", n);\n  w.Set(\"median\", m);\n"
      "  r.Set(\"wall_seconds\", std::move(w));\n");
  EXPECT_TRUE(fs.empty());
}

// --- JSON report and the real tree -----------------------------------

TEST(HjlintReportTest, JsonShapeMatchesContract) {
  std::vector<Finding> fs = {
      {"raw-mutex-primitive", "src/a.cc", 7, "raw std::mutex"}};
  JsonValue doc = FindingsToJson(fs);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("count")->AsInt(), 1);
  const JsonValue* arr = doc.Find("findings");
  ASSERT_TRUE(arr != nullptr && arr->is_array());
  EXPECT_EQ(arr->at(0).Find("rule")->AsString(), "raw-mutex-primitive");
  EXPECT_EQ(arr->at(0).Find("file")->AsString(), "src/a.cc");
  EXPECT_EQ(arr->at(0).Find("line")->AsInt(), 7);
}

TEST(HjlintTreeTest, RealSourceTreeIsClean) {
  const std::string root = HJLINT_SOURCE_DIR;
  std::vector<Finding> fs = LintTree(
      {root + "/src", root + "/bench", root + "/tools", root + "/examples"},
      root, {});
  for (const Finding& f : fs) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

TEST(HjlintTreeTest, RuleFilterRestrictsChecks) {
  // Only the requested rule runs: the raw-mutex fixture stays silent
  // when linting for spp-ring-power-of-two.
  auto fs = LintFile("src/sched/bad.h", "  std::mutex mu_;\n",
                     {"spp-ring-power-of-two"});
  EXPECT_TRUE(fs.empty());
}

// --- whole-program facts engine (hjlint v2) --------------------------

facts::FactsDb BuildDb(
    const std::vector<std::pair<std::string, std::string>>& files) {
  facts::FactsDb db;
  for (const auto& [path, src] : files) {
    facts::CollectDecls(path, src, &db.decls);
  }
  for (const auto& [path, src] : files) {
    facts::ExtractFacts(path, src, &db);
  }
  return db;
}

bool AnyMessageContains(const std::vector<Finding>& fs,
                        const std::string& needle) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.message.find(needle) != std::string::npos;
  });
}

// --- lock-order-cycle ------------------------------------------------

const char kPairHeader[] =
    "class Pair {\n"
    " public:\n"
    "  void Forward();\n"
    "  void Backward();\n"
    " private:\n"
    "  Mutex ma_;\n"
    "  Mutex mb_;\n"
    "};\n";

TEST(HjlintLockOrderTest, SeededInversionIsDetectedAsCycle) {
  // The acceptance fixture: one function locks ma_ then mb_, another
  // locks mb_ then ma_ — a textbook ABBA deadlock.
  auto db = BuildDb({{"src/pair.h", kPairHeader},
                     {"src/pair.cc",
                      "void Pair::Forward() {\n"
                      "  MutexLock a(ma_);\n"
                      "  MutexLock b(mb_);\n"
                      "}\n"
                      "void Pair::Backward() {\n"
                      "  MutexLock b(mb_);\n"
                      "  MutexLock a(ma_);\n"
                      "}\n"}});
  facts::Manifest manifest = facts::ParseManifest(
      "Pair::ma_ -> Pair::mb_\nPair::mb_ -> Pair::ma_\n");
  auto fs = facts::CheckLockOrder(db, manifest, "lock_order.txt", true);
  ASSERT_TRUE(HasRule(fs, "lock-order-cycle"));
  EXPECT_TRUE(AnyMessageContains(fs, "cycle"));
  EXPECT_TRUE(AnyMessageContains(fs, "Pair::ma_"));
  EXPECT_TRUE(AnyMessageContains(fs, "Pair::mb_"));
}

TEST(HjlintLockOrderTest, ConsistentDeclaredOrderIsClean) {
  auto db = BuildDb({{"src/pair.h", kPairHeader},
                     {"src/pair.cc",
                      "void Pair::Forward() {\n"
                      "  MutexLock a(ma_);\n"
                      "  MutexLock b(mb_);\n"
                      "}\n"
                      "void Pair::Backward() {\n"
                      "  MutexLock a(ma_);\n"
                      "  MutexLock b(mb_);\n"
                      "}\n"}});
  facts::Manifest manifest =
      facts::ParseManifest("Pair::ma_ -> Pair::mb_\n");
  auto fs = facts::CheckLockOrder(db, manifest, "lock_order.txt", true);
  for (const Finding& f : fs) {
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.message;
  }
}

TEST(HjlintLockOrderTest, ObservedEdgeMissingFromManifestIsFlagged) {
  auto db = BuildDb({{"src/pair.h", kPairHeader},
                     {"src/pair.cc",
                      "void Pair::Forward() {\n"
                      "  MutexLock a(ma_);\n"
                      "  MutexLock b(mb_);\n"
                      "}\n"}});
  auto fs = facts::CheckLockOrder(db, facts::ParseManifest(""),
                                  "lock_order.txt", true);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "lock-order-cycle");
  EXPECT_EQ(fs[0].file, "src/pair.cc");
  EXPECT_EQ(fs[0].line, 3u);
  EXPECT_TRUE(AnyMessageContains(fs, "not declared"));
}

TEST(HjlintLockOrderTest, StaleManifestEntryIsFlagged) {
  auto db = BuildDb({{"src/pair.h", kPairHeader}});  // no acquisitions
  facts::Manifest manifest =
      facts::ParseManifest("# header\nPair::ma_ -> Pair::mb_\n");
  auto fs = facts::CheckLockOrder(db, manifest, "lock_order.txt", true);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].file, "lock_order.txt");
  EXPECT_EQ(fs[0].line, 2u);
  EXPECT_TRUE(AnyMessageContains(fs, "stale"));
}

TEST(HjlintLockOrderTest, RequiresAnnotationDerivesEdge) {
  // InnerLocked never spells the outer lock — HJ_REQUIRES(ma_) supplies
  // the context, so acquiring mb_ inside still yields ma_ -> mb_.
  auto db = BuildDb({{"src/ann.h",
                      "class Ann {\n"
                      " public:\n"
                      "  void InnerLocked() HJ_REQUIRES(ma_);\n"
                      " private:\n"
                      "  Mutex ma_;\n"
                      "  Mutex mb_;\n"
                      "};\n"},
                     {"src/ann.cc",
                      "void Ann::InnerLocked() {\n"
                      "  MutexLock b(mb_);\n"
                      "}\n"}});
  auto edges = facts::CollectLockEdges(db);
  bool found = std::any_of(
      edges.begin(), edges.end(), [](const facts::ObservedEdge& e) {
        return e.outer == "Ann::ma_" && e.inner == "Ann::mb_" &&
               e.via == "HJ_REQUIRES";
      });
  EXPECT_TRUE(found);
  auto fs = facts::CheckLockOrder(
      db, facts::ParseManifest("Ann::ma_ -> Ann::mb_\n"),
      "lock_order.txt", true);
  EXPECT_TRUE(fs.empty());
}

TEST(HjlintLockOrderTest, ReacquiringHeldMutexIsSelfDeadlock) {
  auto db = BuildDb({{"src/selfy.h",
                      "class Selfy {\n"
                      " public:\n"
                      "  void Relock() HJ_REQUIRES(mu_);\n"
                      " private:\n"
                      "  Mutex mu_;\n"
                      "};\n"},
                     {"src/selfy.cc",
                      "void Selfy::Relock() {\n"
                      "  MutexLock l(mu_);\n"
                      "}\n"}});
  auto fs = facts::CheckLockOrder(db, facts::ParseManifest(""),
                                  "lock_order.txt", true);
  ASSERT_TRUE(HasRule(fs, "lock-order-cycle"));
  EXPECT_TRUE(AnyMessageContains(fs, "Selfy::mu_"));
}

// --- callback-under-lock ---------------------------------------------

const char kNotifierHeader[] =
    "class Notifier {\n"
    " public:\n"
    "  void Fire();\n"
    " private:\n"
    "  Mutex mu_;\n"
    "  std::function<void()> cb_;\n"
    "};\n";

TEST(HjlintCallbackTest, DirectInvocationUnderLockIsFlagged) {
  auto db = BuildDb({{"src/notifier.h", kNotifierHeader},
                     {"src/notifier.cc",
                      "void Notifier::Fire() {\n"
                      "  MutexLock lock(mu_);\n"
                      "  if (cb_) cb_();\n"
                      "}\n"}});
  auto fs = facts::CheckCallbackUnderLock(db);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "callback-under-lock");
  EXPECT_EQ(fs[0].file, "src/notifier.cc");
  EXPECT_EQ(fs[0].line, 3u);
  EXPECT_TRUE(AnyMessageContains(fs, "Notifier::mu_"));
}

TEST(HjlintCallbackTest, SnapshotInvokedOutsideLockIsClean) {
  // The idiom the rule is designed to push callers toward: copy the
  // member under the lock, leave the scope, invoke the copy.
  auto db = BuildDb({{"src/notifier.h", kNotifierHeader},
                     {"src/notifier.cc",
                      "void Notifier::Fire() {\n"
                      "  std::function<void()> fn;\n"
                      "  {\n"
                      "    MutexLock lock(mu_);\n"
                      "    fn = cb_;\n"
                      "  }\n"
                      "  if (fn) fn();\n"
                      "}\n"}});
  auto fs = facts::CheckCallbackUnderLock(db);
  EXPECT_TRUE(fs.empty());
}

TEST(HjlintCallbackTest, SnapshotInvokedInsideLockIsStillFlagged) {
  auto db = BuildDb({{"src/notifier.h", kNotifierHeader},
                     {"src/notifier.cc",
                      "void Notifier::Fire() {\n"
                      "  std::function<void()> fn;\n"
                      "  MutexLock lock(mu_);\n"
                      "  fn = cb_;\n"
                      "  fn();\n"
                      "}\n"}});
  auto fs = facts::CheckCallbackUnderLock(db);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 5u);
}

TEST(HjlintCallbackTest, RequiresAnnotationCountsAsHeld) {
  // No lexical MutexLock in the body — the HJ_REQUIRES contract says
  // the caller already holds mu_, so invoking the member still runs a
  // foreign closure under our lock.
  auto db = BuildDb({{"src/hooked.h",
                      "class Hooked {\n"
                      " public:\n"
                      "  void FireLocked() HJ_REQUIRES(mu_);\n"
                      " private:\n"
                      "  Mutex mu_;\n"
                      "  std::function<void()> hook_;\n"
                      "};\n"},
                     {"src/hooked.cc",
                      "void Hooked::FireLocked() {\n"
                      "  hook_();\n"
                      "}\n"}});
  auto fs = facts::CheckCallbackUnderLock(db);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(AnyMessageContains(fs, "Hooked::mu_"));
}

// --- atomic-handoff-discipline ---------------------------------------

TEST(HjlintAtomicTest, DefaultedOpsOnHandoffFieldAreFlagged) {
  // depth is published with a release store, so it is a handoff field:
  // the defaulted .load() and the bare assignment are both seq-cst by
  // default and must spell their order.
  auto db = BuildDb({{"src/chan.h",
                      "struct Chan {\n"
                      "  std::atomic<uint32_t> depth{0};\n"
                      "};\n"},
                     {"src/chan.cc",
                      "void Pub(Chan* c, uint32_t v) {\n"
                      "  c->depth.store(v, std::memory_order_release);\n"
                      "}\n"
                      "uint32_t SubGood(Chan* c) {\n"
                      "  return c->depth.load(std::memory_order_acquire);\n"
                      "}\n"
                      "uint32_t SubBad(Chan* c) {\n"
                      "  return c->depth.load();\n"
                      "}\n"
                      "void Reset(Chan* c) {\n"
                      "  c->depth = 0;\n"
                      "}\n"}});
  auto fs = facts::CheckAtomicHandoff(db);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "atomic-handoff-discipline");
  EXPECT_TRUE(AnyMessageContains(fs, "Chan::depth"));
  bool bad_load = std::any_of(fs.begin(), fs.end(), [](const Finding& f) {
    return f.line == 8 && f.file == "src/chan.cc";
  });
  bool bad_assign = std::any_of(fs.begin(), fs.end(), [](const Finding& f) {
    return f.line == 11 && f.file == "src/chan.cc";
  });
  EXPECT_TRUE(bad_load);
  EXPECT_TRUE(bad_assign);
}

TEST(HjlintAtomicTest, ReleaseStoreWithoutAcquireLoadIsFlagged) {
  auto db = BuildDb({{"src/flag.h",
                      "struct Flag {\n"
                      "  std::atomic<bool> ready{false};\n"
                      "};\n"},
                     {"src/flag.cc",
                      "void Set(Flag* f) {\n"
                      "  f->ready.store(true, std::memory_order_release);\n"
                      "}\n"
                      "bool Peek(Flag* f) {\n"
                      "  return f->ready.load(std::memory_order_relaxed);\n"
                      "}\n"}});
  auto fs = facts::CheckAtomicHandoff(db);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(AnyMessageContains(fs, "Flag::ready"));
  EXPECT_TRUE(AnyMessageContains(fs, "acquire"));
}

TEST(HjlintAtomicTest, AcquireLoadWithoutReleaseStoreIsFlagged) {
  auto db = BuildDb({{"src/sig.h",
                      "struct Sig {\n"
                      "  std::atomic<int> seq{0};\n"
                      "};\n"},
                     {"src/sig.cc",
                      "int Wait(Sig* g) {\n"
                      "  return g->seq.load(std::memory_order_acquire);\n"
                      "}\n"
                      "void Post(Sig* g) {\n"
                      "  g->seq.store(1, std::memory_order_relaxed);\n"
                      "}\n"}});
  auto fs = facts::CheckAtomicHandoff(db);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(AnyMessageContains(fs, "Sig::seq"));
  EXPECT_TRUE(AnyMessageContains(fs, "release"));
}

TEST(HjlintAtomicTest, ExplicitPairWithRelaxedStatsIsClean) {
  // Release/acquire pairing with an explicitly-relaxed diagnostic load
  // is the disciplined shape — no findings.
  auto db = BuildDb({{"src/tune.h",
                      "struct Tune {\n"
                      "  std::atomic<uint32_t> group{0};\n"
                      "};\n"},
                     {"src/tune.cc",
                      "void Publish(Tune* t, uint32_t v) {\n"
                      "  t->group.store(v, std::memory_order_release);\n"
                      "}\n"
                      "uint32_t Snapshot(Tune* t) {\n"
                      "  return t->group.load(std::memory_order_acquire);\n"
                      "}\n"
                      "uint32_t Stat(Tune* t) {\n"
                      "  return t->group.load(std::memory_order_relaxed);\n"
                      "}\n"}});
  auto fs = facts::CheckAtomicHandoff(db);
  EXPECT_TRUE(fs.empty());
}

TEST(HjlintAtomicTest, NonHandoffCounterIsIgnored) {
  // No release/acquire traffic anywhere: a plain stats counter keeps
  // its defaulted orders without complaint.
  auto db = BuildDb({{"src/ctr.h",
                      "struct Ctr {\n"
                      "  std::atomic<uint64_t> hits{0};\n"
                      "};\n"},
                     {"src/ctr.cc",
                      "void Bump(Ctr* c) {\n"
                      "  c->hits.fetch_add(1);\n"
                      "}\n"
                      "uint64_t Total(Ctr* c) {\n"
                      "  return c->hits.load();\n"
                      "}\n"}});
  auto fs = facts::CheckAtomicHandoff(db);
  EXPECT_TRUE(fs.empty());
}

// --- harvested facts from the real tree ------------------------------

TEST(HjlintFactsTest, BrokerGraphContainsDocumentedListenerEdge) {
  // Regression anchor for the fact extractor: MemoryBroker::Acquire
  // nests a victim grant's listener_mu_ inside the broker's mu_; the
  // harvested acquisition graph must contain that edge (it is the
  // first entry of tools/hjlint/lock_order.txt).
  const std::string root = HJLINT_SOURCE_DIR;
  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  std::vector<std::pair<std::string, std::string>> files = {
      {"src/sched/memory_broker.h",
       slurp(root + "/src/sched/memory_broker.h")},
      {"src/sched/memory_broker.cc",
       slurp(root + "/src/sched/memory_broker.cc")}};
  for (const auto& [path, src] : files) {
    ASSERT_FALSE(src.empty()) << "could not read " << path;
  }
  auto db = BuildDb(files);
  auto edges = facts::CollectLockEdges(db);
  bool found = std::any_of(
      edges.begin(), edges.end(), [](const facts::ObservedEdge& e) {
        return e.outer == "MemoryBroker::mu_" &&
               e.inner == "MemoryGrant::listener_mu_";
      });
  EXPECT_TRUE(found)
      << "MemoryBroker::mu_ -> MemoryGrant::listener_mu_ not harvested";
}

// --- baseline suppression --------------------------------------------

TEST(HjlintBaselineTest, TrackedFindingIsSuppressedAcrossLineDrift) {
  // Baseline entries key on rule/file/message, not line numbers, so a
  // finding that merely moved stays suppressed.
  std::vector<Finding> tracked = {
      {"lock-order-cycle", "src/a.cc", 10, "edge A -> B is not declared"}};
  std::string base = FormatBaseline(tracked);
  std::vector<Finding> later = {
      {"lock-order-cycle", "src/a.cc", 42, "edge A -> B is not declared"}};
  BaselineApplied ap = ApplyBaseline(later, base, "baseline.txt");
  EXPECT_TRUE(ap.active.empty());
  EXPECT_TRUE(ap.stale.empty());
  ASSERT_EQ(ap.suppressed.size(), 1u);
  EXPECT_EQ(ap.suppressed[0].line, 42u);
}

TEST(HjlintBaselineTest, NewFindingStaysActiveAndPaidDebtGoesStale) {
  std::vector<Finding> tracked = {{"r1", "src/a.cc", 1, "old debt"}};
  std::string base = FormatBaseline(tracked);
  std::vector<Finding> now = {{"r2", "src/b.cc", 2, "new debt"}};
  BaselineApplied ap = ApplyBaseline(now, base, "baseline.txt");
  ASSERT_EQ(ap.active.size(), 1u);
  EXPECT_EQ(ap.active[0].rule, "r2");
  ASSERT_EQ(ap.stale.size(), 1u);
  EXPECT_EQ(ap.stale[0].rule, "stale-baseline");
  EXPECT_EQ(ap.stale[0].file, "baseline.txt");
  EXPECT_TRUE(ap.stale[0].message.find("r1") != std::string::npos);
}

// --- repo-root-relative finding paths --------------------------------

TEST(HjlintTreeTest, FindingPathsAreRootRelative) {
  namespace stdfs = std::filesystem;
  stdfs::path root = stdfs::temp_directory_path() / "hjlint_relpath_test";
  stdfs::remove_all(root);
  stdfs::create_directories(root / "src");
  {
    std::ofstream out(root / "src" / "bad.h");
    out << "class C {\n  std::mutex mu_;\n};\n";
  }
  auto fs = LintTree({(root / "src").string()}, root.string(),
                     {"raw-mutex-primitive"});
  stdfs::remove_all(root);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].file, "src/bad.h");
}

}  // namespace
}  // namespace hjlint
}  // namespace hashjoin
