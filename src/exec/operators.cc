#include "exec/operators.h"

#include <cstring>

#include "join/exec_policy.h"
#include "join/grace.h"
#include "mem/memory_model.h"
#include "util/logging.h"

namespace hashjoin {
namespace exec {

// ---------- ScanOperator ----------

ScanOperator::ScanOperator(const Relation* relation, uint32_t batch_size)
    : relation_(relation), batch_size_(batch_size) {
  HJ_CHECK(batch_size_ >= 1);
}

Status ScanOperator::Open() {
  page_index_ = 0;
  slot_index_ = 0;
  return Status::OK();
}

bool ScanOperator::Next(RowBatch* out) {
  out->Clear();
  while (out->rows.size() < batch_size_) {
    if (page_index_ >= relation_->num_pages()) break;
    const SlottedPage page = relation_->page(page_index_);
    if (slot_index_ >= page.slot_count()) {
      ++page_index_;
      slot_index_ = 0;
      continue;
    }
    uint16_t len = 0;
    const uint8_t* data = page.GetTuple(slot_index_, &len);
    out->rows.push_back({data, len});
    ++slot_index_;
  }
  return !out->empty();
}

// ---------- FilterOperator ----------

FilterOperator::FilterOperator(std::unique_ptr<Operator> child,
                               Predicate predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOperator::Open() { return child_->Open(); }

bool FilterOperator::Next(RowBatch* out) {
  out->Clear();
  // Keep pulling child batches until at least one row survives, so that
  // a sparse filter does not spuriously end the stream.
  while (out->empty()) {
    if (!child_->Next(&scratch_)) return false;
    for (const RowBatch::Row& row : scratch_.rows) {
      if (predicate_(row.data, row.length)) out->rows.push_back(row);
    }
  }
  return true;
}

// ---------- ProjectOperator ----------

namespace {
Schema ProjectedSchema(const Schema& in, const std::vector<uint32_t>& cols) {
  std::vector<Attribute> attrs;
  for (uint32_t c : cols) {
    HJ_CHECK(c < in.num_attrs());
    HJ_CHECK(in.attr(c).type != AttrType::kVarChar)
        << "ProjectOperator supports fixed-size attributes";
    attrs.push_back(in.attr(c));
  }
  return Schema(std::move(attrs));
}
}  // namespace

ProjectOperator::ProjectOperator(std::unique_ptr<Operator> child,
                                 std::vector<uint32_t> columns)
    : child_(std::move(child)),
      columns_(std::move(columns)),
      output_schema_(ProjectedSchema(child_->output_schema(), columns_)),
      buffer_(output_schema_) {
  const Schema& in = child_->output_schema();
  for (size_t i = 0; i < columns_.size(); ++i) {
    src_offsets_.push_back(in.offset(columns_[i]));
    dst_offsets_.push_back(output_schema_.offset(i));
    uint32_t width = output_schema_.fixed_size() -
                     output_schema_.offset(i);
    if (i + 1 < columns_.size()) {
      width = output_schema_.offset(i + 1) - output_schema_.offset(i);
    }
    widths_.push_back(width);
  }
}

Status ProjectOperator::Open() { return child_->Open(); }

bool ProjectOperator::Next(RowBatch* out) {
  out->Clear();
  if (!child_->Next(&scratch_)) return false;
  buffer_.Clear();
  uint16_t out_len = uint16_t(output_schema_.fixed_size());
  for (const RowBatch::Row& row : scratch_.rows) {
    uint8_t* dst = buffer_.AllocAppend(out_len);
    for (size_t c = 0; c < columns_.size(); ++c) {
      std::memcpy(dst + dst_offsets_[c], row.data + src_offsets_[c],
                  widths_[c]);
    }
  }
  for (size_t p = 0; p < buffer_.num_pages(); ++p) {
    const SlottedPage page = buffer_.page(p);
    for (int s = 0; s < page.slot_count(); ++s) {
      uint16_t len = 0;
      const uint8_t* data = page.GetTuple(s, &len);
      out->rows.push_back({data, len});
    }
  }
  return true;
}

// ---------- HashJoinOperator ----------

HashJoinOperator::HashJoinOperator(std::unique_ptr<Operator> build_child,
                                   std::unique_ptr<Operator> probe_child,
                                   Scheme scheme, KernelParams params)
    : build_child_(std::move(build_child)),
      probe_child_(std::move(probe_child)),
      scheme_(scheme),
      params_(params),
      output_schema_(ConcatSchema(build_child_->output_schema(),
                                  probe_child_->output_schema())),
      build_side_(build_child_->output_schema()),
      out_buffer_(output_schema_) {}

Status HashJoinOperator::Open() {
  HJ_RETURN_IF_ERROR(build_child_->Open());
  HJ_RETURN_IF_ERROR(probe_child_->Open());
  build_row_size_ = build_child_->output_schema().fixed_size();

  // Materialize the build side (hash codes memoized into the slots).
  RowBatch batch;
  while (build_child_->Next(&batch)) {
    for (const RowBatch::Row& row : batch.rows) {
      uint32_t key;
      std::memcpy(&key, row.data, 4);
      build_side_.Append(row.data, row.length, HashKey32(key));
    }
  }
  if (build_side_.num_tuples() == 0) {
    table_ = std::make_unique<HashTable>(3);
    return Status::OK();
  }
  table_ = std::make_unique<HashTable>(
      ChooseBucketCount(build_side_.num_tuples(), 31));
  RealMemory mm;
  BuildPartition(mm, scheme_, build_side_, table_.get(), params_);
  return Status::OK();
}

bool HashJoinOperator::Next(RowBatch* out) {
  out->Clear();
  RealMemory mm;
  // Pull probe batches until one produces output (or input ends). Each
  // batch runs as one prefetch group through the staged pipeline and the
  // operator "pauses at the group boundary" to emit (§5.4).
  RowBatch probe_batch;
  while (out->empty()) {
    if (!probe_child_->Next(&probe_batch)) return false;
    out_buffer_.Clear();
    ProbeContext<RealMemory> ctx(&mm, table_.get(), build_row_size_,
                                 probe_child_->output_schema().fixed_size(),
                                 build_side_, &out_buffer_, params_);
    std::vector<ProbeState> states(probe_batch.size());
    bool staged = scheme_ == Scheme::kGroup || scheme_ == Scheme::kSwp;
    for (size_t i = 0; i < probe_batch.size(); ++i) {
      ProbeState& st = states[i];
      const RowBatch::Row& row = probe_batch.rows[i];
      uint32_t key;
      std::memcpy(&key, row.data, 4);
      st.tuple = row.data;
      st.hash = HashKey32(key);
      st.bucket = table_->bucket(table_->BucketIndex(st.hash));
      st.alive = true;
      if (staged) PrefetchRead(st.bucket);
    }
    if (staged) {
      for (auto& st : states) ProbeStage1(ctx, st, /*prefetch=*/true);
      for (auto& st : states) ProbeStage2(ctx, st, true);
      for (auto& st : states) ProbeStage3(ctx, st);
    } else {
      for (auto& st : states) {
        ProbeStage1(ctx, st, false);
        ProbeStage2(ctx, st, false);
        ProbeStage3(ctx, st);
      }
    }
    ctx.sink.Final();
    rows_joined_ += ctx.output_count;
    // Hand the materialized outputs to the parent.
    for (size_t p = 0; p < out_buffer_.num_pages(); ++p) {
      const SlottedPage page = out_buffer_.page(p);
      for (int s = 0; s < page.slot_count(); ++s) {
        uint16_t len = 0;
        const uint8_t* data = page.GetTuple(s, &len);
        out->rows.push_back({data, len});
      }
    }
  }
  return true;
}

// ---------- GraceJoinOperator ----------

GraceJoinOperator::GraceJoinOperator(std::unique_ptr<Operator> build_child,
                                     std::unique_ptr<Operator> probe_child,
                                     GraceConfig config, uint32_t batch_size)
    : build_child_(std::move(build_child)),
      probe_child_(std::move(probe_child)),
      config_(config),
      batch_size_(batch_size),
      output_schema_(ConcatSchema(build_child_->output_schema(),
                                  probe_child_->output_schema())),
      build_side_(build_child_->output_schema(), config.page_size),
      probe_side_(probe_child_->output_schema(), config.page_size),
      output_(output_schema_, config.page_size) {
  HJ_CHECK(batch_size_ >= 1);
}

Status GraceJoinOperator::Open() {
  HJ_RETURN_IF_ERROR(build_child_->Open());
  HJ_RETURN_IF_ERROR(probe_child_->Open());

  // Materialize both children with memoized hash codes, as the GRACE
  // partition phase expects from its scan inputs.
  auto drain = [](Operator* child, Relation* dest) {
    RowBatch batch;
    while (child->Next(&batch)) {
      for (const RowBatch::Row& row : batch.rows) {
        uint32_t key;
        std::memcpy(&key, row.data, 4);
        dest->Append(row.data, row.length, HashKey32(key));
      }
    }
  };
  drain(build_child_.get(), &build_side_);
  drain(probe_child_.get(), &probe_side_);

  output_.Clear();
  result_ = JoinResult{};
  RealMemory mm;
  result_ = GraceHashJoin(mm, build_side_, probe_side_, config_, &output_);
  out_page_ = 0;
  out_slot_ = 0;
  return Status::OK();
}

bool GraceJoinOperator::Next(RowBatch* out) {
  out->Clear();
  while (out->rows.size() < batch_size_) {
    if (out_page_ >= output_.num_pages()) break;
    const SlottedPage page = output_.page(out_page_);
    if (out_slot_ >= page.slot_count()) {
      ++out_page_;
      out_slot_ = 0;
      continue;
    }
    uint16_t len = 0;
    const uint8_t* data = page.GetTuple(out_slot_, &len);
    out->rows.push_back({data, len});
    ++out_slot_;
  }
  return !out->empty();
}

// ---------- AggregateOperator ----------

AggregateOperator::AggregateOperator(std::unique_ptr<Operator> child,
                                     uint32_t value_offset,
                                     uint32_t group_size,
                                     uint32_t batch_size,
                                     const model::MachineParams& machine)
    : child_(std::move(child)),
      value_offset_(value_offset),
      group_size_(group_size),
      batch_size_(batch_size),
      output_schema_({{"key", AttrType::kInt32, 4},
                      {"count", AttrType::kInt64, 8},
                      {"sum", AttrType::kInt64, 8}}),
      results_(output_schema_) {
  if (group_size_ == 0) {
    // ChooseParams resolves an infeasible Theorem-1 condition to its
    // fallback (19, the paper's tuned value), so this is always > 0.
    group_size_ =
        model::ChooseParams(AggregateCodeCosts(), machine).group_size;
  }
}

Status AggregateOperator::Open() {
  HJ_RETURN_IF_ERROR(child_->Open());

  // Drain the child into a staging relation, then aggregate it with the
  // group-prefetched kernel.
  Relation staged(child_->output_schema());
  RowBatch batch;
  while (child_->Next(&batch)) {
    for (const RowBatch::Row& row : batch.rows) {
      uint32_t key;
      std::memcpy(&key, row.data, 4);
      staged.Append(row.data, row.length, HashKey32(key));
    }
  }
  RealMemory mm;
  HashAggTable agg(NextRelativelyPrime(
      std::max<uint64_t>(staged.num_tuples(), 3), 31));
  AggregateGroup(mm, staged, value_offset_, &agg, group_size_);

  agg.ForEachGroup([&](const AggState& s) {
    uint8_t row[20];
    std::memcpy(row, &s.key, 4);
    int64_t count = int64_t(s.count);
    std::memcpy(row + 4, &count, 8);
    std::memcpy(row + 12, &s.sum, 8);
    results_.Append(row, sizeof(row), HashKey32(s.key));
  });
  result_page_ = 0;
  result_slot_ = 0;
  return Status::OK();
}

bool AggregateOperator::Next(RowBatch* out) {
  out->Clear();
  while (out->rows.size() < batch_size_) {
    if (result_page_ >= results_.num_pages()) break;
    const SlottedPage page = results_.page(result_page_);
    if (result_slot_ >= page.slot_count()) {
      ++result_page_;
      result_slot_ = 0;
      continue;
    }
    uint16_t len = 0;
    const uint8_t* data = page.GetTuple(result_slot_, &len);
    out->rows.push_back({data, len});
    ++result_slot_;
  }
  return !out->empty();
}

}  // namespace exec
}  // namespace hashjoin
