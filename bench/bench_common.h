#ifndef HASHJOIN_BENCH_BENCH_COMMON_H_
#define HASHJOIN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_blocks.h"
#include "join/grace.h"
#include "model/cost_model.h"
#include "mem/memory_model.h"
#include "perf/calibrate.h"
#include "simcache/memory_sim.h"
#include "storage/buffer_manager.h"
#include "tune/prefetch_tuner.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "workload/generator.h"

namespace hashjoin {
namespace bench {

/// Scaled experiment geometry shared by the simulator benches. The paper
/// runs a 50MB join-phase memory budget at a 50:1 memory:cache ratio
/// (§7.1 footnote 7); `scale` shrinks every byte count while the cache
/// stays Table-2 sized, so runs finish in seconds. scale = 1.0 reproduces
/// the paper's sizes exactly.
struct BenchGeometry {
  double scale = 0.1;

  uint64_t MemoryBudget() const {
    return uint64_t(50.0 * 1024 * 1024 * scale);
  }
  /// Build-partition tuple count for a tuple size: partition + hash table
  /// fill the memory budget tightly (§7.1).
  uint64_t BuildTuples(uint32_t tuple_size) const {
    uint64_t per_tuple =
        tuple_size + sizeof(BucketHeader) + sizeof(HashCell);
    return MemoryBudget() / per_tuple;
  }
};

/// Result of one simulated phase run.
struct SimRun {
  sim::SimStats stats;
  uint64_t outputs = 0;
  double wall_seconds = 0;
};

/// Joins one generated (build, probe) partition pair in the simulator
/// under `scheme`: measures build + probe together (the paper's join
/// phase). The caches start cold.
inline SimRun RunJoinPhaseSim(Scheme scheme, const JoinWorkload& w,
                              const KernelParams& params,
                              const sim::SimConfig& cfg) {
  sim::MemorySim simulator(cfg);
  SimMemory mm(&simulator);
  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  // Timed window starts after hash-table construction: bucket-array
  // allocation is setup, not part of the join phase under test.
  WallTimer timer;
  BuildPartition(mm, scheme, w.build, &ht, params);
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
  SimRun r;
  r.outputs = ProbePartition(mm, scheme, w.probe, ht,
                             w.build.schema().fixed_size(), params, &out);
  r.stats = simulator.stats();
  r.wall_seconds = timer.ElapsedSeconds();
  return r;
}

/// Partitions a generated source relation into P partitions in the
/// simulator under `scheme`.
inline SimRun RunPartitionPhaseSim(Scheme scheme, const Relation& input,
                                   uint32_t num_partitions,
                                   const KernelParams& params,
                                   const sim::SimConfig& cfg,
                                   bool combined = false) {
  sim::MemorySim simulator(cfg);
  SimMemory mm(&simulator);
  std::vector<Relation> parts;
  parts.reserve(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    parts.emplace_back(input.schema());
  }
  // Timed window starts after the partition-vector setup: constructing
  // num_partitions empty relations is allocation, not partitioning.
  WallTimer timer;
  SimRun r;
  {
    PartitionSinkSet sinks(&parts, kDefaultPageSize);
    if (combined) {
      PartitionCombined(mm, input, &sinks, num_partitions, params,
                        cfg.l2_size, scheme);
    } else {
      PartitionRelation(mm, scheme, input, &sinks, num_partitions, params);
    }
  }
  for (auto& p : parts) r.outputs += p.num_tuples();
  r.stats = simulator.stats();
  r.wall_seconds = timer.ElapsedSeconds();
  return r;
}

/// Pretty-prints one breakdown bar (the Figure 1/11/15 format): absolute
/// cycles and the share of each stall category.
inline void PrintBreakdown(const std::string& label,
                           const sim::SimStats& s) {
  uint64_t total = s.TotalCycles();
  auto pct = [&](uint64_t v) {
    return total == 0 ? 0.0 : 100.0 * double(v) / double(total);
  };
  std::printf(
      "%-22s total=%12llu  busy=%5.1f%%  dcache=%5.1f%%  dtlb=%5.1f%%  "
      "other=%5.1f%%\n",
      label.c_str(), (unsigned long long)total, pct(s.busy_cycles),
      pct(s.dcache_stall_cycles), pct(s.dtlb_stall_cycles),
      pct(s.other_stall_cycles));
}

/// Normalized-cycles row for line-chart style figures. The column set
/// defaults to every scheme (hashjoin::AllSchemes).
inline void PrintSeriesHeader(const char* x_name,
                              const std::vector<Scheme>& schemes) {
  std::printf("%-14s", x_name);
  for (Scheme s : schemes) std::printf(" %14s", SchemeName(s));
  std::printf("\n");
}

inline void PrintSeriesHeader(const char* x_name) {
  PrintSeriesHeader(x_name, hashjoin::AllSchemes());
}

inline void PrintSeriesRow(const std::string& x,
                           const std::vector<uint64_t>& cycles) {
  std::printf("%-14s", x.c_str());
  for (uint64_t c : cycles) std::printf(" %14llu", (unsigned long long)c);
  std::printf("\n");
}

inline void PrintSpeedups(const std::vector<uint64_t>& cycles) {
  if (cycles.empty() || cycles[0] == 0) return;
  std::printf("%-14s", "  speedup");
  for (uint64_t c : cycles) {
    std::printf(" %13.2fx", c == 0 ? 0.0 : double(cycles[0]) / double(c));
  }
  std::printf("\n");
}

/// The geometry scale of a simulator bench: `--scale`, else the smallest
/// one (0.01) under `--smoke`, else `default_scale`.
inline double ScaleFromFlags(const FlagParser& flags, double default_scale) {
  return flags.GetDouble("scale", flags.GetBool("smoke", false)
                                      ? 0.01
                                      : default_scale);
}

/// Resolves the shared `--scheme` flag: a comma-separated list of scheme
/// names (one table for every bench, no per-driver copies), defaulting
/// to every scheme. Unknown names are fatal and list the valid values.
inline std::vector<Scheme> SchemesFromFlag(const FlagParser& flags) {
  std::string value = flags.GetString("scheme", "");
  if (value.empty()) return hashjoin::AllSchemes();
  std::vector<Scheme> schemes;
  size_t pos = 0;
  while (pos <= value.size()) {
    size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    std::string name = value.substr(pos, comma - pos);
    Scheme s;
    if (!name.empty()) {
      if (!ParseScheme(name, &s)) {
        std::fprintf(stderr,
                     "unknown --scheme value '%s' (valid: %s)\n",
                     name.c_str(), SchemeNameList().c_str());
        std::exit(2);
      }
      schemes.push_back(s);
    }
    pos = comma + 1;
  }
  if (schemes.empty()) {
    std::fprintf(stderr, "--scheme parsed to an empty list (valid: %s)\n",
                 SchemeNameList().c_str());
    std::exit(2);
  }
  return schemes;
}

/// Interleave width for the coroutine policy: the same Theorem-1 sizing
/// group prefetching uses — W concurrent chains hide the latency G
/// concurrent group slots do.
inline uint32_t TunedCoroWidth(const model::CodeCosts& costs,
                               const sim::SimConfig& cfg) {
  model::MachineParams machine{cfg.memory_latency,
                               cfg.memory_bandwidth_gap};
  return model::ChooseParams(costs, machine).group_size;
}

/// Model-chosen kernel parameters for a simulated machine: the same
/// Theorem 1+2 sizing the real-hardware resolver applies, fed with the
/// sim config's latency and bandwidth gap instead of a calibration. Sim
/// drivers use this instead of hardcoding depths.
inline KernelParams SimTunedParams(const model::CodeCosts& costs,
                                   const sim::SimConfig& cfg) {
  model::MachineParams machine{cfg.memory_latency,
                               cfg.memory_bandwidth_gap};
  model::ParamChoice choice = model::ChooseParams(costs, machine);
  KernelParams p;
  p.group_size = choice.group_size;
  p.prefetch_distance = choice.prefetch_distance;
  return p;
}

/// Per-stage code costs of the probe loop, taken from the simulator's
/// Table-2 instruction estimates. On real hardware these are approximate
/// — they parameterize Theorems 1 and 2, whose G/D output is insensitive
/// to small Ci errors (the curves are flat near the optimum, Fig. 12).
inline model::CodeCosts ProbeCodeCosts() {
  sim::SimConfig def;
  return model::CodeCosts{{def.cost_hash + def.cost_slot_bookkeeping,
                           def.cost_visit_header, def.cost_visit_cell,
                           def.cost_key_compare +
                               2 * def.cost_tuple_copy_per_line}};
}

/// Partition-loop stage costs from the same Table-2 estimates: stage 0
/// hashes and picks the destination, stage 1 touches the output buffer
/// tail (the one dependent reference, k = 1).
inline model::CodeCosts PartitionCodeCosts() {
  sim::SimConfig def;
  return model::CodeCosts{
      {def.cost_hash + def.cost_slot_bookkeeping,
       2 * def.cost_tuple_copy_per_line}};
}

// ---------------------------------------------------------------------------
// Shared G/D tuning resolution (--tune=off|static|online). One resolver
// for every bench driver: drivers must not hardcode depths or carry
// their own calibration blocks.

/// How a bench picks G and D.
enum class TuneMode {
  kOff,     ///< paper-default KernelParams, no calibration
  kStatic,  ///< calibrate T/Tnext/max_outstanding once, Theorems 1+2
  kOnline,  ///< static choice as reference + PrefetchTuner per batch
};

inline const char* TuneModeName(TuneMode m) {
  switch (m) {
    case TuneMode::kOff:
      return "off";
    case TuneMode::kStatic:
      return "static";
    case TuneMode::kOnline:
      return "online";
  }
  return "off";
}

/// Parses `--tune=off|static|online` (default off). Unknown values are
/// fatal.
inline TuneMode TuneModeFromFlags(const FlagParser& flags) {
  std::string value = flags.GetString("tune", "off");
  if (value == "off") return TuneMode::kOff;
  if (value == "static") return TuneMode::kStatic;
  if (value == "online") return TuneMode::kOnline;
  std::fprintf(stderr,
               "unknown --tune value '%s' (valid: off, static, online)\n",
               value.c_str());
  std::exit(2);
}

/// Paper-default kernel parameters for the join phase: the T=150 optima
/// G=19, D=1 (KernelParams' own defaults).
inline KernelParams PaperJoinDefaults() { return KernelParams{}; }

/// Paper-default kernel parameters for the partition phase: G=14, D=4
/// (§6's partition-loop optima at T=150).
inline KernelParams PaperPartitionDefaults() {
  KernelParams p;
  p.group_size = 14;
  p.prefetch_distance = 4;
  return p;
}

/// The simulated machine's join-phase optima (the fig10/fig18/fig19
/// empirical sweep: G=14, D=1 at the simulator's T=150 — the paper's
/// machine lands at G=19). One definition so the sim drivers never
/// hardcode depths individually.
inline KernelParams SimPaperJoinParams() {
  KernelParams p;
  p.group_size = 14;
  p.prefetch_distance = 1;
  return p;
}

/// The simulated machine's partition-loop optima (G=14, D=2).
inline KernelParams SimPaperPartitionParams() {
  KernelParams p;
  p.group_size = 14;
  p.prefetch_distance = 2;
  return p;
}

/// The outcome of ResolveTuning: the mode, the calibration (when one
/// ran), the model's feasibility-and-clamp record, and ready-to-use
/// KernelParams (the static choice; online runs start from it and set
/// G and D from the tuner after each batch).
struct TuningResolution {
  TuneMode mode = TuneMode::kOff;
  bool calibrated = false;
  perf::CalibrationResult calibration;
  model::ParamChoice choice;
  KernelParams params;

  /// The shared "tuning" block of a bench record, so every driver's JSON
  /// shows how its depths were chosen (and when the LFB ceiling clamped
  /// them). bench_diff --check validates this block when present.
  JsonValue ToJson() const {
    JsonValue o = JsonValue::Object();
    o.Set("mode", TuneModeName(mode));
    o.Set("calibrated", calibrated);
    o.Set("max_outstanding", calibration.max_outstanding);
    o.Set("G", params.group_size);
    o.Set("D", params.prefetch_distance);
    o.Set("group_feasible", choice.group_feasible);
    o.Set("swp_feasible", choice.swp_feasible);
    o.Set("group_lfb_clamped", choice.group_lfb_clamped);
    o.Set("swp_lfb_clamped", choice.swp_lfb_clamped);
    return o;
  }
};

/// Resolves G and D for one bench from the shared flags: kOff returns
/// `defaults` untouched; kStatic/kOnline calibrate this host (T, Tnext,
/// and the LFB/MSHR `max_outstanding` ceiling) and run Theorems 1+2
/// through model::ChooseParams, which clamps against the measured
/// outstanding-miss limit. --smoke shrinks the calibration buffers the
/// same way for every driver.
inline TuningResolution ResolveTuning(const FlagParser& flags,
                                      const model::CodeCosts& costs,
                                      const KernelParams& defaults) {
  TuningResolution r;
  r.mode = TuneModeFromFlags(flags);
  r.params = defaults;
  if (r.mode == TuneMode::kOff) return r;
  perf::CalibrationOptions copt;
  if (flags.GetBool("smoke", false)) {
    copt.buffer_bytes = 4ull << 20;
    copt.chase_steps = 200'000;
    copt.lfb.steps_per_chain = 20'000;
  }
  r.calibration = perf::CalibrateMachine(copt);
  r.calibrated = true;
  r.choice = perf::TuneFromCalibration(r.calibration, costs);
  r.params.group_size = r.choice.group_size;
  r.params.prefetch_distance = r.choice.prefetch_distance;
  std::printf(
      "tune(%s): T=%u Tnext=%u max_outstanding=%u -> G=%u%s D=%u%s%s\n",
      TuneModeName(r.mode), r.calibration.t_cycles,
      r.calibration.tnext_cycles, r.calibration.max_outstanding,
      r.params.group_size, r.choice.group_lfb_clamped ? " (lfb-clamped)" : "",
      r.params.prefetch_distance,
      r.choice.swp_lfb_clamped ? " (lfb-clamped)" : "",
      r.calibration.used_counters ? "" : " (no cycle counter; ns-based)");
  return r;
}

/// Seeds a PrefetchTuner from a resolution: the ramp is capped by the
/// measured LFB ceiling (when known) and by the static choice's search
/// cap, and the depth-to-D projection uses the phase's k.
inline tune::TunerConfig TunerConfigFromResolution(
    const TuningResolution& r, const model::CodeCosts& costs) {
  tune::TunerConfig cfg;
  cfg.stages_k = costs.k();
  cfg.max_outstanding = r.calibration.max_outstanding;
  return cfg;
}

/// One case of the disk fault sweep of real_join_bench and
/// real_partition_bench: `raw` (no checksums), `clean` (checksums, no
/// faults) or `faults` (checksums, faults at `--fault-rate`).
struct FaultSweepCase {
  const char* name;
  bool checksums;
  double fault_rate;
  uint64_t fault_seed;

  /// Four fast disks, page checksums per `checksums`, one `fault_rate`
  /// for read errors, write errors and torn pages alike, and write
  /// verification whenever faults are injected (a torn page reports
  /// success; only a read-back catches it).
  BufferManagerConfig Disks() const {
    BufferManagerConfig cfg;
    cfg.num_disks = 4;
    cfg.disk.bandwidth_mb_per_s = 20000;
    cfg.disk.request_latency_us = 0;
    cfg.checksum_pages = checksums;
    cfg.disk.fault.read_error_rate = fault_rate;
    cfg.disk.fault.write_error_rate = fault_rate;
    cfg.disk.fault.torn_page_rate = fault_rate;
    cfg.disk.fault.seed = fault_seed;
    cfg.verify_writes = fault_rate > 0;
    return cfg;
  }
};

/// The sweep `--fault-rate` (default 0) and `--fault-seed` ask for: raw
/// and clean, plus faults when the rate is positive.
inline std::vector<FaultSweepCase> FaultSweepCases(const FlagParser& flags) {
  const double rate = flags.GetDouble("fault-rate", 0.0);
  const uint64_t seed = uint64_t(flags.GetInt("fault-seed", 0x5EED));
  std::vector<FaultSweepCase> cases = {{"raw", false, 0.0, seed},
                                       {"clean", true, 0.0, seed},
                                       {"faults", true, rate, seed}};
  if (rate <= 0) cases.pop_back();
  return cases;
}

}  // namespace bench
}  // namespace hashjoin

#endif  // HASHJOIN_BENCH_BENCH_COMMON_H_
