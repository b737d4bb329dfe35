// Compares two BENCH_*.json files produced by the src/perf harness and
// flags regressions, or validates one file against the schema:
//
//   bench_diff [--threshold=0.10] [--metric=wall_seconds.median]
//              [--require=PATH[,PATH...]] OLD NEW
//   bench_diff --check [--require=PATH[,PATH...]] FILE [FILE...]
//
// Records are matched by their unique "name". A record regresses when
// NEW metric > OLD metric * (1 + threshold); the exit code is 1 when any
// record regresses (or, with --check, when any file fails validation),
// so CI can gate on it. Counter metrics work too, e.g.
// --metric=counters.llc_misses — records where either side lacks the
// metric (counters unavailable) are reported and skipped, not failed:
// a bench run on a counter-less CI host must not mask wall-time
// regressions seen elsewhere.
//
// --require inverts that leniency for the named dotted metric paths
// (comma-separated): each required path must resolve to a numeric value
// in at least one record of every examined file, else the run FAILS
// instead of skipping — and in compare mode, a record pair lacking data
// for the --metric fails too when that metric is required. CI fixtures
// use it to pin down metrics a bench promises to emit — a silent schema
// drift then breaks the gate rather than producing a vacuously green
// "no data" diff.
//
// --check also verifies every record block written from a stats
// struct's field list (bench/bench_blocks.h: "sim", "recovery",
// "cache", "tail_latency", ...): wherever such a block appears, it must
// hold every key that struct's list writes. The check reads the same
// lists the benches write from, so the two cannot drift apart.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_blocks.h"
#include "util/fields.h"
#include "util/flags.h"
#include "util/json_writer.h"

namespace hashjoin {
namespace {

// --- schema validation (--check) ---

/// The keys each block of bench/bench_blocks.h holds, by block key;
/// `array` blocks hold one such object per element.
struct BlockSchema {
  bool array = false;
  std::vector<std::string> keys;
};

struct CollectSchemas {
  std::map<std::string, BlockSchema>* schemas;

  template <class... S>
  void operator()(const perf::Block<S...>& block) {
    BlockSchema& schema = (*schemas)[block.key];
    for (auto keys : {fields::JsonKeys<S>()...}) {
      schema.keys.insert(schema.keys.end(), keys.begin(), keys.end());
    }
  }
  template <class S>
  void operator()(const perf::ArrayBlock<S>& block) {
    (*schemas)[block.key] = {true, fields::JsonKeys<S>()};
  }
};

const std::map<std::string, BlockSchema>& BlockSchemas() {
  static const auto* schemas = [] {
    auto* out = new std::map<std::string, BlockSchema>();
    CollectSchemas collect{out};
    bench::VisitBlocks(collect);
    return out;
  }();
  return *schemas;
}

/// Every block found at any depth of `v` must hold each key its
/// structs' field lists write, as a number, a bool or null. A null
/// block (counters the host could not read) is the envelope's concern.
void CheckBlocks(const JsonValue& v, const std::string& path,
                 std::vector<std::string>* errors) {
  auto check_object = [&](const JsonValue& obj, const std::string& where,
                          const BlockSchema& schema) {
    for (const std::string& key : schema.keys) {
      const JsonValue* x = obj.is_object() ? obj.FindPath(key) : nullptr;
      if (x == nullptr || !(x->is_number() || x->is_null() ||
                            x->type() == JsonValue::Type::kBool)) {
        errors->push_back(where + ": missing scalar \"" + key + "\"");
      }
    }
  };
  for (size_t i = 0; v.is_array() && i < v.size(); ++i) {
    CheckBlocks(v.at(i), path + "[" + std::to_string(i) + "]", errors);
  }
  if (!v.is_object()) return;
  for (const auto& [key, member] : v.members()) {
    const std::string where = path + "." + key;
    auto it = BlockSchemas().find(key);
    if (it != BlockSchemas().end() && !member.is_null()) {
      if (!it->second.array) {
        check_object(member, where, it->second);
      } else if (!member.is_array()) {
        errors->push_back(where + ": not an array");
      } else {
        for (size_t i = 0; i < member.size(); ++i) {
          check_object(member.at(i), where + "[" + std::to_string(i) + "]",
                       it->second);
        }
      }
    }
    CheckBlocks(member, where, errors);
  }
}

bool CheckRecord(const JsonValue& rec, size_t index,
                 std::vector<std::string>* errors) {
  auto err = [&](const std::string& what) {
    errors->push_back("records[" + std::to_string(index) + "]: " + what);
    return false;
  };
  if (!rec.is_object()) return err("not an object");
  const JsonValue* name = rec.Find("name");
  if (name == nullptr || !name->is_string() || name->AsString().empty()) {
    return err("missing non-empty \"name\"");
  }
  const JsonValue* config = rec.Find("config");
  if (config == nullptr || !config->is_object()) {
    return err("missing \"config\" object");
  }
  // Execution-policy tagging: records are comparable across schemes only
  // when the scheme is named, so when present it must carry a value.
  const JsonValue* scheme = config->Find("scheme");
  if (scheme != nullptr &&
      (!scheme->is_string() || scheme->AsString().empty())) {
    return err("\"config.scheme\" must be a non-empty string");
  }
  const JsonValue* trials = rec.Find("trials");
  if (trials == nullptr || !trials->is_number() || trials->AsInt() < 1) {
    return err("missing \"trials\" >= 1");
  }
  const JsonValue* median = rec.FindPath("wall_seconds.median");
  if (median == nullptr || !median->is_number()) {
    return err("missing numeric \"wall_seconds.median\"");
  }
  const JsonValue* counters = rec.Find("counters");
  if (counters == nullptr) {
    return err("missing \"counters\" (object, or null with "
               "\"counters_unavailable\")");
  }
  if (counters->is_null()) {
    const JsonValue* why = rec.Find("counters_unavailable");
    if (why == nullptr || !why->is_string() || why->AsString().empty()) {
      return err("null \"counters\" without a \"counters_unavailable\" "
                 "reason");
    }
  } else if (!counters->is_object()) {
    return err("\"counters\" must be an object or null");
  }
  // Tuning provenance: optional, but when a record carries it, it must
  // name its mode (off/static/online) so runs remain comparable.
  const JsonValue* tuning = rec.Find("tuning");
  if (tuning != nullptr) {
    if (!tuning->is_object()) return err("\"tuning\" must be an object");
    const JsonValue* mode = tuning->Find("mode");
    if (mode == nullptr || !mode->is_string() || mode->AsString().empty()) {
      return err("\"tuning.mode\" must be a non-empty string");
    }
  }
  // Online-tuner records: the trajectory (one entry per batch) and the
  // final depths are the whole point of the record — require them.
  const JsonValue* tuner = rec.Find("tuner");
  if (tuner != nullptr) {
    if (!tuner->is_object()) return err("\"tuner\" must be an object");
    const JsonValue* trajectory = tuner->Find("trajectory");
    if (trajectory == nullptr || !trajectory->is_array() ||
        trajectory->size() == 0) {
      return err("\"tuner\" without a non-empty \"trajectory\" array");
    }
    const JsonValue* final_g = tuner->Find("final_G");
    const JsonValue* final_d = tuner->Find("final_D");
    if (final_g == nullptr || !final_g->is_number() || final_d == nullptr ||
        !final_d->is_number()) {
      return err("\"tuner\" without numeric \"final_G\"/\"final_D\"");
    }
  }
  const size_t before = errors->size();
  CheckBlocks(rec, "records[" + std::to_string(index) + "]", errors);
  return errors->size() == before;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// --require: each path must be a numeric value in at least one record.
/// Appends an error per unmet path; returns false if any was unmet.
bool CheckRequiredPaths(const JsonValue* records,
                        const std::vector<std::string>& required,
                        std::vector<std::string>* errors) {
  bool all_found = true;
  for (const std::string& path : required) {
    bool found = false;
    for (size_t i = 0; records != nullptr && i < records->size(); ++i) {
      const JsonValue* v = records->at(i).FindPath(path);
      if (v != nullptr && v->is_number()) {
        found = true;
        break;
      }
    }
    if (!found) {
      errors->push_back("required metric \"" + path +
                        "\" missing from every record");
      all_found = false;
    }
  }
  return all_found;
}

int CheckFile(const std::string& path,
              const std::vector<std::string>& required) {
  auto doc = ReadJsonFile(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> errors;
  const JsonValue& root = doc.value();
  if (!root.is_object()) errors.push_back("top level is not an object");
  const JsonValue* bench = root.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->AsString().empty()) {
    errors.push_back("missing non-empty \"bench\"");
  }
  const JsonValue* host = root.Find("host");
  if (host == nullptr || !host->is_object() ||
      host->Find("counters_available") == nullptr) {
    errors.push_back("missing \"host\" with \"counters_available\"");
  }
  const JsonValue* records = root.Find("records");
  if (records == nullptr || !records->is_array() || records->size() == 0) {
    errors.push_back("missing non-empty \"records\" array");
  } else {
    for (size_t i = 0; i < records->size(); ++i) {
      CheckRecord(records->at(i), i, &errors);
    }
  }
  CheckRequiredPaths(records, required, &errors);
  if (errors.empty()) {
    std::printf("%s: OK (%zu records)\n", path.c_str(),
                records != nullptr ? records->size() : 0);
    return 0;
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.c_str());
  }
  return 1;
}

// --- regression comparison ---

const JsonValue* FindRecord(const JsonValue& records,
                            const std::string& name) {
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonValue* n = records.at(i).Find("name");
    if (n != nullptr && n->is_string() && n->AsString() == name) {
      return &records.at(i);
    }
  }
  return nullptr;
}

int Compare(const std::string& old_path, const std::string& new_path,
            const std::string& metric, double threshold,
            const std::vector<std::string>& required) {
  const bool metric_required =
      std::find(required.begin(), required.end(), metric) != required.end();
  auto old_doc = ReadJsonFile(old_path);
  auto new_doc = ReadJsonFile(new_path);
  if (!old_doc.ok() || !new_doc.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!old_doc.ok() ? old_doc.status() : new_doc.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  const JsonValue* old_records = old_doc.value().Find("records");
  const JsonValue* new_records = new_doc.value().Find("records");
  if (old_records == nullptr || new_records == nullptr) {
    std::fprintf(stderr, "both files need a \"records\" array "
                         "(run bench_diff --check first)\n");
    return 2;
  }

  // Required metrics must exist on both sides before any comparing.
  std::vector<std::string> required_errors;
  CheckRequiredPaths(old_records, required, &required_errors);
  CheckRequiredPaths(new_records, required, &required_errors);
  for (const std::string& e : required_errors) {
    std::fprintf(stderr, "%s\n", e.c_str());
  }
  int missing_required = int(required_errors.size());

  std::printf("%-40s %14s %14s %9s\n", "record", "old", "new", "delta");
  int regressions = 0, improvements = 0, skipped = 0;
  for (size_t i = 0; i < new_records->size(); ++i) {
    const JsonValue& nr = new_records->at(i);
    const JsonValue* name = nr.Find("name");
    if (name == nullptr || !name->is_string()) continue;
    const JsonValue* old_rec = FindRecord(*old_records, name->AsString());
    if (old_rec == nullptr) {
      std::printf("%-40s %14s %14s %9s\n", name->AsString().c_str(), "-",
                  "present", "new");
      continue;
    }
    const JsonValue* ov = old_rec->FindPath(metric);
    const JsonValue* nv = nr.FindPath(metric);
    if (ov == nullptr || nv == nullptr || ov->is_null() || nv->is_null() ||
        !ov->is_number() || !nv->is_number()) {
      if (metric_required) {
        std::printf("%-40s %14s %14s %9s\n", name->AsString().c_str(), "?",
                    "?", "MISSING");
        ++missing_required;
      } else {
        std::printf("%-40s %14s %14s %9s\n", name->AsString().c_str(), "?",
                    "?", "no data");
        ++skipped;
      }
      continue;
    }
    double o = ov->AsDouble(), n = nv->AsDouble();
    double delta = o == 0 ? 0 : (n - o) / o;
    const char* mark = "";
    if (n > o * (1.0 + threshold)) {
      mark = "  << REGRESSION";
      ++regressions;
    } else if (n < o * (1.0 - threshold)) {
      mark = "  (improved)";
      ++improvements;
    }
    std::printf("%-40s %14.6g %14.6g %+8.1f%%%s\n",
                name->AsString().c_str(), o, n, 100.0 * delta, mark);
  }
  for (size_t i = 0; i < old_records->size(); ++i) {
    const JsonValue* n = old_records->at(i).Find("name");
    if (n != nullptr && n->is_string() &&
        FindRecord(*new_records, n->AsString()) == nullptr) {
      std::printf("%-40s %14s %14s %9s\n", n->AsString().c_str(),
                  "present", "-", "removed");
    }
  }
  std::printf("\nmetric=%s threshold=%.1f%%: %d regression(s), "
              "%d improvement(s), %d without data, %d missing required\n",
              metric.c_str(), 100.0 * threshold, regressions, improvements,
              skipped, missing_required);
  return regressions > 0 || missing_required > 0 ? 1 : 0;
}

}  // namespace
}  // namespace hashjoin

int main(int argc, char** argv) {
  hashjoin::FlagParser flags;
  flags.Parse(argc, argv);

  // Positional arguments: everything neither a --flag nor consumed as a
  // flag's space-separated value (mirrors FlagParser::Parse).
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      if (a.find('=') == std::string::npos && i + 1 < argc &&
          argv[i + 1][0] != '-') {
        ++i;  // value consumed by the flag
      }
      continue;
    }
    positional.push_back(a);
  }

  std::vector<std::string> required =
      hashjoin::SplitCsv(flags.GetString("require", ""));

  if (flags.Has("check")) {
    // Both `--check FILE` (FILE lands in the flag value) and
    // `--check=FILE` and `--check FILE1 FILE2 ...` work.
    std::string inline_file = flags.GetString("check", "");
    if (!inline_file.empty() && inline_file != "true") {
      positional.insert(positional.begin(), inline_file);
    }
    if (positional.empty()) {
      std::fprintf(stderr,
                   "usage: bench_diff --check [--require=PATH[,PATH...]] "
                   "FILE [FILE...]\n");
      return 2;
    }
    int rc = 0;
    for (const std::string& f : positional) {
      rc |= hashjoin::CheckFile(f, required);
    }
    return rc;
  }

  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff [--threshold=0.10] "
                 "[--metric=wall_seconds.median] "
                 "[--require=PATH[,PATH...]] OLD NEW\n"
                 "       bench_diff --check [--require=PATH[,PATH...]] "
                 "FILE [FILE...]\n");
    return 2;
  }
  return hashjoin::Compare(positional[0], positional[1],
                           flags.GetString("metric", "wall_seconds.median"),
                           flags.GetDouble("threshold", 0.10), required);
}
