#include "join/grace.h"

#include "hash/hash_table.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace hashjoin {

namespace {

// The one scheme <-> name table (ISSUE 6): SchemeName, ParseScheme,
// SchemeNameList, and AllSchemes all read it, so adding a scheme here is
// the single registration point.
struct SchemeEntry {
  Scheme scheme;
  const char* name;
};

constexpr SchemeEntry kSchemeTable[] = {
    {Scheme::kBaseline, "baseline"}, {Scheme::kSimple, "simple"},
    {Scheme::kGroup, "group"},       {Scheme::kSwp, "swp"},
    {Scheme::kCoro, "coro"},
};

}  // namespace

const char* SchemeName(Scheme s) {
  for (const SchemeEntry& e : kSchemeTable) {
    if (e.scheme == s) return e.name;
  }
  return "?";
}

bool ParseScheme(const std::string& name, Scheme* out) {
  for (const SchemeEntry& e : kSchemeTable) {
    if (name == e.name) {
      *out = e.scheme;
      return true;
    }
  }
  return false;
}

std::string SchemeNameList() {
  std::string list;
  for (const SchemeEntry& e : kSchemeTable) {
    if (!list.empty()) list += ", ";
    list += e.name;
  }
  return list;
}

std::vector<Scheme> AllSchemes() {
  std::vector<Scheme> out;
  for (const SchemeEntry& e : kSchemeTable) out.push_back(e.scheme);
  return out;
}

uint32_t ComputeNumPartitions(uint64_t num_tuples, uint64_t data_bytes,
                              uint64_t budget) {
  HJ_CHECK(budget > 0);
  uint64_t total = data_bytes + HashTable::EstimateBytes(num_tuples);
  uint64_t parts = (total + budget - 1) / budget;
  if (parts == 0) parts = 1;
  return uint32_t(parts);
}

PartitionPlan PlanPartitionPasses(uint32_t wanted, uint32_t max_active) {
  if (wanted == 0) wanted = 1;
  PartitionPlan plan;
  if (max_active == 0 || wanted <= max_active) {
    plan.pass1 = 1;
    plan.pass2 = wanted;
    return plan;
  }
  plan.pass1 = (wanted + max_active - 1) / max_active;
  HJ_CHECK(plan.pass1 <= max_active)
      << "partition count " << wanted << " exceeds cap^2";
  plan.pass2 = (wanted + plan.pass1 - 1) / plan.pass1;
  return plan;
}

uint64_t ChooseBucketCount(uint64_t partition_tuples,
                           uint64_t num_partitions) {
  uint64_t target = std::max<uint64_t>(partition_tuples, 3);
  return NextRelativelyPrime(target, num_partitions);
}

Schema ConcatSchema(const Schema& build, const Schema& probe) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < build.num_attrs(); ++i) {
    Attribute a = build.attr(i);
    a.name = "b_" + a.name;
    attrs.push_back(a);
  }
  for (size_t i = 0; i < probe.num_attrs(); ++i) {
    Attribute a = probe.attr(i);
    a.name = "p_" + a.name;
    attrs.push_back(a);
  }
  return Schema(std::move(attrs));
}

}  // namespace hashjoin
