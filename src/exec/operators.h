#ifndef HASHJOIN_EXEC_OPERATORS_H_
#define HASHJOIN_EXEC_OPERATORS_H_

#include <functional>
#include <memory>

#include "exec/operator.h"
#include "hash/hash_table.h"
#include "join/aggregate_kernels.h"
#include "join/grace.h"
#include "join/join_common.h"
#include "model/cost_model.h"
#include "storage/relation.h"

namespace hashjoin {
namespace exec {

/// Scans a relation, `batch_size` rows at a time. Rows point into the
/// scanned relation and remain valid for its lifetime.
class ScanOperator : public Operator {
 public:
  ScanOperator(const Relation* relation, uint32_t batch_size = 64);

  Status Open() override;
  bool Next(RowBatch* out) override;
  const Schema& output_schema() const override {
    return relation_->schema();
  }

 private:
  const Relation* relation_;
  uint32_t batch_size_;
  size_t page_index_ = 0;
  int slot_index_ = 0;
};

/// Filters rows by a predicate.
class FilterOperator : public Operator {
 public:
  using Predicate = std::function<bool(const uint8_t* row, uint16_t len)>;

  FilterOperator(std::unique_ptr<Operator> child, Predicate predicate);

  Status Open() override;
  bool Next(RowBatch* out) override;
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

 private:
  std::unique_ptr<Operator> child_;
  Predicate predicate_;
  RowBatch scratch_;
};

/// Projects a subset of fixed-size columns, materializing the narrowed
/// rows into operator-owned pages. Rows stay valid until the next
/// Next() call.
class ProjectOperator : public Operator {
 public:
  /// `columns` are attribute indices of the child's schema; all must be
  /// fixed-size attributes.
  ProjectOperator(std::unique_ptr<Operator> child,
                  std::vector<uint32_t> columns);

  Status Open() override;
  bool Next(RowBatch* out) override;
  const Schema& output_schema() const override { return output_schema_; }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<uint32_t> columns_;
  std::vector<uint32_t> src_offsets_;
  std::vector<uint32_t> dst_offsets_;
  std::vector<uint32_t> widths_;
  Schema output_schema_;
  Relation buffer_;  // current batch's materialized rows
  RowBatch scratch_;
};

/// Group-prefetched hash equijoin operator (keys at offset 0 of both
/// sides). Open() drains the build child into an in-memory hash table
/// using the configured scheme. Each Next() pulls one probe batch, runs
/// the staged probing pipeline over it — one batch is one prefetch group
/// — and emits the concatenated outputs, pausing at the group boundary
/// to hand the batch to the parent (§5.4). Output rows stay valid until
/// the next Next() call.
class HashJoinOperator : public Operator {
 public:
  HashJoinOperator(std::unique_ptr<Operator> build_child,
                   std::unique_ptr<Operator> probe_child,
                   Scheme scheme = Scheme::kGroup,
                   KernelParams params = KernelParams{});

  Status Open() override;
  bool Next(RowBatch* out) override;
  const Schema& output_schema() const override { return output_schema_; }

  uint64_t rows_joined() const { return rows_joined_; }

 private:
  std::unique_ptr<Operator> build_child_;
  std::unique_ptr<Operator> probe_child_;
  Scheme scheme_;
  KernelParams params_;
  Schema output_schema_;
  Relation build_side_;          // materialized build rows
  std::unique_ptr<HashTable> table_;
  Relation out_buffer_;          // current batch's output rows
  uint64_t rows_joined_ = 0;
  uint32_t build_row_size_ = 0;
};

/// Blocking GRACE hash-join operator: Open() drains both children into
/// materialized relations and runs the full partitioned join through the
/// morsel-parallel executor (`config.num_threads` workers joining
/// independent partition pairs); Next() streams the materialized output.
/// This is the operator-tree entry point to everything GraceConfig
/// offers — partitioning plans, cache modes, and multi-threading —
/// where HashJoinOperator is the single-partition pipelined form.
class GraceJoinOperator : public Operator {
 public:
  GraceJoinOperator(std::unique_ptr<Operator> build_child,
                    std::unique_ptr<Operator> probe_child,
                    GraceConfig config = GraceConfig{},
                    uint32_t batch_size = 64);

  Status Open() override;
  bool Next(RowBatch* out) override;
  const Schema& output_schema() const override { return output_schema_; }

  uint64_t rows_joined() const { return result_.output_tuples; }
  const JoinResult& join_result() const { return result_; }

 private:
  std::unique_ptr<Operator> build_child_;
  std::unique_ptr<Operator> probe_child_;
  GraceConfig config_;
  uint32_t batch_size_;
  Schema output_schema_;
  Relation build_side_;
  Relation probe_side_;
  Relation output_;
  JoinResult result_;
  size_t out_page_ = 0;
  int out_slot_ = 0;
};

/// Blocking hash aggregation: COUNT(*) and SUM of an int64 column per
/// 4-byte key at offset 0, computed with group prefetching. Emits rows
/// of schema (key:int32, count:int64, sum:int64).
class AggregateOperator : public Operator {
 public:
  /// `group_size` 0 (the default) derives the prefetch group size from
  /// the cost model: model::ChooseParams over AggregateCodeCosts() and
  /// `machine` — pass a calibrated MachineParams
  /// (perf::CalibrationResult::ToMachineParams()) when one is available;
  /// the default-constructed Table-1 parameters otherwise. A non-zero
  /// `group_size` forces that size, bypassing the model.
  AggregateOperator(std::unique_ptr<Operator> child, uint32_t value_offset,
                    uint32_t group_size = 0, uint32_t batch_size = 64,
                    const model::MachineParams& machine =
                        model::MachineParams{});

  Status Open() override;
  bool Next(RowBatch* out) override;
  const Schema& output_schema() const override { return output_schema_; }

 private:
  std::unique_ptr<Operator> child_;
  uint32_t value_offset_;
  uint32_t group_size_;
  uint32_t batch_size_;
  Schema output_schema_;
  Relation results_;  // materialized (key, count, sum) rows
  size_t result_page_ = 0;
  int result_slot_ = 0;
};

}  // namespace exec
}  // namespace hashjoin

#endif  // HASHJOIN_EXEC_OPERATORS_H_
