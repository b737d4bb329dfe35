// Tests for the observability subsystem: json_writer round-trips,
// PerfCounters on both the available and forced-unavailable paths,
// BenchReporter record schema, and the calibration -> MachineParams ->
// ChooseParams pipeline including the infeasible sentinels.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "model/cost_model.h"
#include "perf/bench_reporter.h"
#include "perf/calibrate.h"
#include "perf/perf_counters.h"
#include "util/fields.h"
#include "util/json_writer.h"

namespace hashjoin {
namespace {

// ---------------------------------------------------------------------------
// json_writer

TEST(JsonWriter, EscapingRoundTrip) {
  JsonValue o = JsonValue::Object();
  o.Set("plain", "hello");
  o.Set("quotes", "a\"b\\c");
  o.Set("control", std::string("line1\nline2\ttab\x01end"));
  o.Set("unicode", "caf\xc3\xa9");  // UTF-8 passes through raw
  std::string text = o.Dump(2);

  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("plain")->AsString(), "hello");
  EXPECT_EQ(parsed.value().Find("quotes")->AsString(), "a\"b\\c");
  EXPECT_EQ(parsed.value().Find("control")->AsString(),
            "line1\nline2\ttab\x01end");
  EXPECT_EQ(parsed.value().Find("unicode")->AsString(), "caf\xc3\xa9");
}

TEST(JsonWriter, NumbersSurviveRoundTrip) {
  JsonValue o = JsonValue::Object();
  o.Set("int", int64_t(1234567890123456789));
  o.Set("negative", int64_t(-42));
  o.Set("double", 0.25);
  o.Set("whole_double", 3.0);  // must come back as a double, not an int
  o.Set("boolean", true);
  o.Set("nothing", JsonValue());
  auto parsed = JsonValue::Parse(o.Dump(0));
  ASSERT_TRUE(parsed.ok());
  const JsonValue& p = parsed.value();
  EXPECT_EQ(p.Find("int")->AsInt(), 1234567890123456789);
  EXPECT_EQ(p.Find("negative")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(p.Find("double")->AsDouble(), 0.25);
  EXPECT_EQ(p.Find("whole_double")->type(), JsonValue::Type::kDouble);
  EXPECT_DOUBLE_EQ(p.Find("whole_double")->AsDouble(), 3.0);
  EXPECT_TRUE(p.Find("boolean")->AsBool());
  EXPECT_TRUE(p.Find("nothing")->is_null());
}

TEST(JsonWriter, NestedStructuresAndPathLookup) {
  JsonValue root = JsonValue::Object();
  JsonValue wall = JsonValue::Object();
  wall.Set("median", 0.5);
  root.Set("wall_seconds", std::move(wall));
  JsonValue arr = JsonValue::Array();
  arr.Append(1);
  arr.Append("two");
  root.Set("list", std::move(arr));

  auto parsed = JsonValue::Parse(root.Dump(2));
  ASSERT_TRUE(parsed.ok());
  const JsonValue* median = parsed.value().FindPath("wall_seconds.median");
  ASSERT_NE(median, nullptr);
  EXPECT_DOUBLE_EQ(median->AsDouble(), 0.5);
  EXPECT_EQ(parsed.value().Find("list")->size(), 2u);
  EXPECT_EQ(parsed.value().FindPath("wall_seconds.missing"), nullptr);
  EXPECT_EQ(parsed.value().FindPath("absent.path"), nullptr);
}

TEST(JsonWriter, UnicodeEscapesDecode) {
  auto parsed = JsonValue::Parse(R"({"s": "aé☃😀b"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // é (2 bytes) + snowman (3 bytes) + emoji via surrogate pair (4 bytes).
  EXPECT_EQ(parsed.value().Find("s")->AsString(),
            "a\xc3\xa9\xe2\x98\x83\xf0\x9f\x98\x80"
            "b");
}

TEST(JsonWriter, ParseErrors) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1,}").ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2] garbage").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": tru}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("nan").ok());
}

TEST(JsonWriter, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/hj_json_roundtrip.json";
  JsonValue o = JsonValue::Object();
  o.Set("bench", "unit");
  ASSERT_TRUE(WriteJsonFile(path, o).ok());
  auto back = ReadJsonFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Find("bench")->AsString(), "unit");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// PerfCounters

TEST(PerfCounters, SpinLoopCountsOrDegradesGracefully) {
  perf::PerfCounters counters;
  counters.Start();
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 2'000'000; ++i) sink = sink + i;
  counters.Stop();
  const perf::CounterValues& v = counters.values();
  if (counters.available()) {
    // A 2M-iteration dependent-add loop must burn >1M cycles; anything
    // else means the counter window did not cover the loop.
    ASSERT_TRUE(v.cycles.has_value() || v.instructions.has_value());
    if (v.cycles.has_value()) EXPECT_GT(*v.cycles, 1'000'000u);
    if (v.instructions.has_value()) EXPECT_GT(*v.instructions, 2'000'000u);
  } else {
    // Unavailable hosts (perf_event_paranoid, containers, no PMU): no
    // crash, a reason, and every counter explicitly absent.
    EXPECT_FALSE(counters.unavailable_reason().empty());
    EXPECT_FALSE(v.cycles.has_value());
    EXPECT_FALSE(v.instructions.has_value());
  }
  // The JSON shape is identical either way; absent counters are null.
  JsonValue j = fields::ToJson(v);
  ASSERT_NE(j.Find("cycles"), nullptr);
  ASSERT_NE(j.Find("scaled"), nullptr);
}

TEST(PerfCounters, ForcedDisableGivesValidEmptyReport) {
  ::setenv("HJ_PERF_DISABLE", "1", 1);
  {
    perf::PerfCounters counters;
    EXPECT_FALSE(counters.available());
    EXPECT_NE(counters.unavailable_reason().find("HJ_PERF_DISABLE"),
              std::string::npos);
    counters.Start();  // must be harmless no-ops
    counters.Stop();
    EXPECT_FALSE(counters.values().cycles.has_value());
    EXPECT_TRUE(counters.ActiveCounterNames().empty());
  }
  ::unsetenv("HJ_PERF_DISABLE");
}

// ---------------------------------------------------------------------------
// BenchReporter

TEST(BenchReporter, RecordSchemaAndWrite) {
  std::string path = ::testing::TempDir() + "/hj_bench_reporter.json";
  perf::BenchReporter::Options opt;
  opt.bench_name = "unit";
  opt.output_path = path;
  opt.trials = 3;
  opt.warmup = 1;
  perf::BenchReporter reporter(opt);

  int setups = 0, bodies = 0;
  JsonValue config = JsonValue::Object();
  config.Set("scheme", "group");
  JsonValue& rec = reporter.AddRecord(
      "unit/one", std::move(config), [&] { ++bodies; }, [&] { ++setups; });
  rec.Set("outputs", uint64_t(7));

  // warmup(1) + trials(3), setup before each.
  EXPECT_EQ(bodies, 4);
  EXPECT_EQ(setups, 4);

  ASSERT_TRUE(reporter.Write().ok());
  auto doc = ReadJsonFile(path);
  ASSERT_TRUE(doc.ok());
  const JsonValue& root = doc.value();
  EXPECT_EQ(root.Find("bench")->AsString(), "unit");
  ASSERT_NE(root.Find("host"), nullptr);
  ASSERT_NE(root.Find("host")->Find("counters_available"), nullptr);
  const JsonValue* records = root.Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->size(), 1u);
  const JsonValue& r = records->at(0);
  EXPECT_EQ(r.Find("name")->AsString(), "unit/one");
  EXPECT_EQ(r.Find("trials")->AsInt(), 3);
  EXPECT_EQ(r.FindPath("config.scheme")->AsString(), "group");
  ASSERT_NE(r.FindPath("wall_seconds.median"), nullptr);
  EXPECT_GE(r.FindPath("wall_seconds.median")->AsDouble(), 0.0);
  EXPECT_EQ(r.FindPath("wall_seconds.all")->size(), 3u);
  // counters: object, or null with an explicit reason.
  const JsonValue* counters = r.Find("counters");
  ASSERT_NE(counters, nullptr);
  if (counters->is_null()) {
    ASSERT_NE(r.Find("counters_unavailable"), nullptr);
    EXPECT_FALSE(r.Find("counters_unavailable")->AsString().empty());
  } else {
    EXPECT_TRUE(counters->is_object());
  }
  EXPECT_EQ(r.Find("outputs")->AsInt(), 7);
  std::remove(path.c_str());
}

TEST(BenchReporter, CountersDisabledByCaller) {
  perf::BenchReporter::Options opt;
  opt.bench_name = "unit";
  opt.output_path = ::testing::TempDir() + "/hj_bench_reporter_nc.json";
  opt.trials = 1;
  opt.warmup = 0;
  opt.collect_counters = false;
  perf::BenchReporter reporter(opt);
  EXPECT_FALSE(reporter.counters_available());
  JsonValue& rec =
      reporter.AddRecord("unit/nc", JsonValue::Object(), [] {});
  EXPECT_TRUE(rec.Find("counters")->is_null());
  ASSERT_NE(rec.Find("counters_unavailable"), nullptr);
}

// ---------------------------------------------------------------------------
// Calibration -> MachineParams -> ChooseParams pipeline

TEST(Calibrate, SmallRunProducesUsableMachineParams) {
  perf::CalibrationOptions opt;
  opt.buffer_bytes = 1 << 20;  // cache-sized: fast, still a valid pipeline
  opt.chase_steps = 50'000;
  opt.stream_passes = 2;
  perf::CalibrationResult cal = perf::CalibrateMachine(opt);

  EXPECT_GT(cal.cpu_ghz, 0.0);
  EXPECT_GT(cal.load_latency_ns, 0.0);
  EXPECT_GT(cal.line_gap_ns, 0.0);
  EXPECT_GE(cal.t_cycles, 1u);
  EXPECT_GE(cal.tnext_cycles, 1u);
  EXPECT_GE(cal.t_cycles, cal.tnext_cycles);  // dependent >= pipelined

  model::MachineParams m = cal.ToMachineParams();
  EXPECT_EQ(m.full_latency, cal.t_cycles);
  EXPECT_EQ(m.bandwidth_gap, cal.tnext_cycles);

  // Feed the measured machine through the theorems: feasible stage costs
  // must give usable (non-sentinel) parameters.
  model::CodeCosts costs{{10, 10, 10, 10}};
  model::ParamChoice choice = perf::TuneFromCalibration(cal, costs);
  EXPECT_GE(choice.group_size, 2u);
  EXPECT_GE(choice.prefetch_distance, 1u);
  EXPECT_TRUE(
      model::GroupPrefetchModel::ConditionHolds(costs, m,
                                                choice.group_size) ||
      !choice.group_feasible);

  JsonValue j = cal.ToJson();
  EXPECT_EQ(j.Find("t_cycles")->AsInt(), int64_t(cal.t_cycles));
}

TEST(Calibrate, SanitizeClampsDegenerateCalibrations) {
  // Regression: the ns->cycles truncation can emit tnext_cycles == 0 on
  // fast-DRAM/low-GHz hosts (and t_cycles == 0 on synthetic inputs),
  // where MinDistance has no feasible D. Sanitize must restore the
  // documented domain: 1 <= tnext <= t.
  perf::CalibrationResult cal;
  cal.t_cycles = 0;
  cal.tnext_cycles = 0;
  perf::SanitizeCalibration(&cal);
  EXPECT_GE(cal.tnext_cycles, 1u);
  EXPECT_GE(cal.t_cycles, cal.tnext_cycles);

  // A dependent miss reported cheaper than a pipelined one is a
  // measurement artifact; the sanitized T must cover Tnext.
  perf::CalibrationResult inverted;
  inverted.t_cycles = 3;
  inverted.tnext_cycles = 9;
  perf::SanitizeCalibration(&inverted);
  EXPECT_GE(inverted.t_cycles, inverted.tnext_cycles);
  EXPECT_GE(inverted.tnext_cycles, 1u);

  // Already-sane calibrations pass through untouched.
  perf::CalibrationResult sane;
  sane.t_cycles = 150;
  sane.tnext_cycles = 10;
  perf::SanitizeCalibration(&sane);
  EXPECT_EQ(sane.t_cycles, 150u);
  EXPECT_EQ(sane.tnext_cycles, 10u);

  // The degenerate calibration must now drive the full pipeline without
  // tripping either 0 sentinel.
  model::ParamChoice choice =
      perf::TuneFromCalibration(cal, model::CodeCosts{{0, 0}});
  EXPECT_GE(choice.group_size, 1u);
  EXPECT_GE(choice.prefetch_distance, 1u);
}

TEST(Calibrate, MaxOutstandingFlowsIntoMachineParamsAndJson) {
  perf::CalibrationResult cal;
  cal.t_cycles = 150;
  cal.tnext_cycles = 10;
  cal.max_outstanding = 12;
  model::MachineParams m = cal.ToMachineParams();
  EXPECT_EQ(m.max_outstanding, 12u);
  JsonValue j = cal.ToJson();
  ASSERT_NE(j.Find("max_outstanding"), nullptr);
  EXPECT_EQ(j.Find("max_outstanding")->AsInt(), 12);

  // The ceiling then clamps the tuned choice: k=2 stages at D, G group
  // slots, both within 12 outstanding misses.
  model::ParamChoice choice =
      perf::TuneFromCalibration(cal, model::CodeCosts{{2, 2, 2}});
  EXPECT_LE(choice.group_size, 12u);
  EXPECT_LE(choice.prefetch_distance, 6u);
}

TEST(ChooseParams, MatchesTheoremsWhenFeasible) {
  model::CodeCosts costs{{20, 20, 20}};
  model::MachineParams m{150, 10};
  model::ParamChoice choice = model::ChooseParams(costs, m);
  EXPECT_TRUE(choice.group_feasible);
  EXPECT_TRUE(choice.swp_feasible);
  EXPECT_EQ(choice.group_size,
            model::GroupPrefetchModel::MinGroupSize(costs, m));
  EXPECT_EQ(choice.prefetch_distance,
            model::SwpPrefetchModel::MinDistance(costs, m));
}

TEST(ChooseParams, GroupInfeasibleSentinelClamped) {
  // C0 = 0: (G-1)*C0 >= T can never hold -> MinGroupSize returns the 0
  // sentinel and ChooseParams must fall back, never emit G=0.
  model::CodeCosts costs{{0, 20, 20}};
  model::MachineParams m{150, 10};
  EXPECT_EQ(model::GroupPrefetchModel::MinGroupSize(costs, m), 0u);
  model::ParamChoice choice =
      model::ChooseParams(costs, m, /*fallback_group=*/64,
                          /*fallback_distance=*/4);
  EXPECT_FALSE(choice.group_feasible);
  EXPECT_EQ(choice.group_size, 64u);
  EXPECT_TRUE(choice.swp_feasible);  // Theorem 2 is fine with C0=0 here
  EXPECT_GE(choice.prefetch_distance, 1u);
}

TEST(ChooseParams, SwpInfeasibleSentinelClamped) {
  // A tiny max_distance with a huge T: no feasible D within the cap.
  model::CodeCosts costs{{1, 1}};
  model::MachineParams m{100000, 1};
  EXPECT_EQ(model::SwpPrefetchModel::MinDistance(costs, m,
                                                 /*max_distance=*/8),
            0u);
  model::ParamChoice choice = model::ChooseParams(
      costs, m, /*fallback_group=*/19, /*fallback_distance=*/4,
      /*max_group=*/4096, /*max_distance=*/8);
  EXPECT_FALSE(choice.swp_feasible);
  EXPECT_EQ(choice.prefetch_distance, 4u);
}

}  // namespace
}  // namespace hashjoin
