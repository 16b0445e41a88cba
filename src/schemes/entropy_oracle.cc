#include "schemes/entropy_oracle.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>

#include "obs/counters.h"
#include "obs/trace.h"
#include "relation/stats.h"
#include "util/status.h"

namespace limbo::schemes {

namespace {

/// Row bound of the load: keeps every table slot, group id and count in
/// 32 bits (a bucket table holds at most 2n slots).
constexpr uint64_t kMaxRows = uint64_t{1} << 31;

/// Rows per hash bucket that Group aims for, and the most bucket bits it
/// uses. A bucket of 1024 rows is counted in a table of at most 2048
/// 16-byte slots (32 KiB), which stays in the lane's L1/L2 cache.
constexpr uint64_t kBucketRows = 1024;
constexpr int kMaxBucketBits = 12;

/// Rows packed per step of a pass over the columns (an 8 KiB key block).
constexpr size_t kBlockRows = 1024;

uint64_t Hash(uint64_t key) { return key * 0x9E3779B97F4A7C15ull; }

}  // namespace

EntropyOracle::EntropyOracle(relation::RowSource& source,
                             const EntropyOracleOptions& options)
    : source_(&source),
      options_(options),
      pool_(options.threads),
      num_attributes_(source.schema().NumAttributes()),
      scratch_(pool_.threads()) {
  for (Scratch& scratch : scratch_) scratch.block.resize(kBlockRows);
}

util::Result<double> EntropyOracle::H(fd::AttributeSet x) {
  std::vector<fd::AttributeSet> one{x};
  LIMBO_ASSIGN_OR_RETURN(std::vector<double> hs, HBatch(one));
  return hs[0];
}

util::Result<std::vector<double>> EntropyOracle::HBatch(
    const std::vector<fd::AttributeSet>& sets) {
  std::vector<double> out(sets.size(), 0.0);
  // Resolve the memo (and the trivial empty set) first; collect the
  // distinct remainder for counting.
  std::vector<fd::AttributeSet> missing;
  std::unordered_map<uint64_t, size_t> missing_index;
  std::vector<size_t> slot_of(sets.size(), SIZE_MAX);
  for (size_t i = 0; i < sets.size(); ++i) {
    const fd::AttributeSet x = sets[i];
    double h = 0.0;
    if (x.Empty()) {
      out[i] = 0.0;
    } else if (MemoGet(x, &h)) {
      out[i] = h;
      ++stats_.memo_hits;
      LIMBO_OBS_COUNT("schemes.oracle.memo_hits", 1);
    } else {
      auto [it, inserted] = missing_index.emplace(x.bits(), missing.size());
      if (inserted) missing.push_back(x);
      slot_of[i] = it->second;
    }
  }
  if (missing.empty()) return out;

  const fd::AttributeSet schema = fd::AttributeSet::Full(num_attributes_);
  for (fd::AttributeSet x : missing) {
    if (!x.IsSubsetOf(schema)) {
      return util::Status::InvalidArgument(
          "entropy oracle: attribute set outside the source schema");
    }
  }
  if (!loaded_) LIMBO_RETURN_IF_ERROR(Load());

  std::vector<double> fresh(missing.size(), 0.0);
  if (num_rows_ > 0) {
    LIMBO_OBS_SPAN(span, "schemes.oracle.count");
    // One task per lane; each lane claims the next uncounted set and
    // counts it whole in its own scratch, so a lane the host slows down
    // takes fewer sets instead of holding up the batch. A set's counts
    // multiset does not depend on the lane that counts it.
    std::atomic<size_t> next{0};
    pool_.ParallelFor(0, pool_.threads(), /*grain=*/1,
                      [&](size_t, size_t, size_t lane) {
                        for (size_t s = next++; s < missing.size();
                             s = next++) {
                          fresh[s] = Count(missing[s], &scratch_[lane]);
                        }
                      });
  }
  stats_.sets_counted += missing.size();
  LIMBO_OBS_COUNT("schemes.oracle.sets_counted", missing.size());
  for (size_t s = 0; s < missing.size(); ++s) MemoPut(missing[s], fresh[s]);
  for (size_t i = 0; i < sets.size(); ++i) {
    if (slot_of[i] != SIZE_MAX) out[i] = fresh[slot_of[i]];
  }
  return out;
}

util::Status EntropyOracle::Load() {
  LIMBO_OBS_SPAN(span, "schemes.oracle.load");
  LIMBO_RETURN_IF_ERROR(source_->Reset());
  const size_t m = num_attributes_;
  std::vector<std::vector<uint32_t>> columns(m);
  std::vector<std::unordered_map<std::string, uint32_t>> codes(m);
  std::vector<std::string> fields;
  uint64_t rows = 0;
  while (true) {
    LIMBO_ASSIGN_OR_RETURN(const bool more, source_->Next(&fields));
    if (!more) break;
    if (fields.size() != m) {
      return util::Status::InvalidArgument(
          "entropy oracle: row width does not match the schema");
    }
    if (rows == kMaxRows) {
      return util::Status::OutOfRange(
          "entropy oracle: more than 2^31 rows");
    }
    for (size_t a = 0; a < m; ++a) {
      const auto [it, inserted] = codes[a].try_emplace(
          fields[a], static_cast<uint32_t>(codes[a].size()));
      columns[a].push_back(it->second);
    }
    ++rows;
  }
  columns_ = std::move(columns);
  domain_.resize(m);
  for (size_t a = 0; a < m; ++a) domain_[a] = codes[a].size();
  num_rows_ = rows;
  bucket_bits_ = std::clamp(
      static_cast<int>(std::bit_width((rows + kBucketRows - 1) / kBucketRows)),
      1, kMaxBucketBits);
  buckets_ = size_t{1} << bucket_bits_;
  loaded_ = true;
  ++stats_.passes;
  stats_.rows_read += rows;
  LIMBO_OBS_COUNT("schemes.oracle.passes", 1);
  LIMBO_OBS_COUNT("schemes.oracle.rows_read", rows);
  return util::Status::Ok();
}

double EntropyOracle::Count(fd::AttributeSet x, Scratch* scratch) const {
  // Mixed-radix packing in ascending attribute order: a key is the lead
  // digit (the first column, or group ids after a relabel) followed by
  // the digits of attrs[first, i); `radix` is an exclusive bound on it.
  const std::vector<relation::AttributeId> attrs = x.ToList();
  const uint32_t* lead = columns_[attrs[0]].data();
  uint64_t radix = domain_[attrs[0]];
  size_t first = 1;
  for (size_t i = 1; i < attrs.size(); ++i) {
    const uint64_t d = domain_[attrs[i]];
    if (radix > UINT64_MAX / d) {
      radix = Group(lead, {attrs.data() + first, attrs.data() + i}, radix,
                    /*relabel=*/true, scratch);
      lead = scratch->ids.data();
      first = i;
    }
    radix *= d;
  }
  scratch->counts.clear();
  Group(lead, {attrs.data() + first, attrs.data() + attrs.size()}, radix,
        /*relabel=*/false, scratch);
  return relation::EntropyFromCounts(scratch->counts, num_rows_);
}

void EntropyOracle::Pack(const uint32_t* lead,
                         std::span<const relation::AttributeId> digits,
                         size_t lo, size_t hi, uint64_t* keys) const {
  for (size_t r = lo; r < hi; ++r) keys[r - lo] = lead[r];
  for (relation::AttributeId a : digits) {
    const uint32_t* column = columns_[a].data();
    const uint64_t d = domain_[a];
    for (size_t r = lo; r < hi; ++r) {
      keys[r - lo] = keys[r - lo] * d + column[r];
    }
  }
}

uint64_t EntropyOracle::Group(const uint32_t* lead,
                              std::span<const relation::AttributeId> digits,
                              uint64_t radix, bool relabel,
                              Scratch* scratch) const {
  const size_t n = num_rows_;
  const int shift_bucket = 64 - bucket_bits_;
  uint64_t* block = scratch->block.data();
  // Pass 1: bucket sizes, then each bucket's start in the partition. The
  // keys are packed a block at a time, here and in pass 2, so no n-sized
  // key array is written.
  std::vector<uint32_t>& start = scratch->bucket_start;
  start.assign(buckets_ + 1, 0);
  for (size_t lo = 0; lo < n; lo += kBlockRows) {
    const size_t hi = std::min<size_t>(n, lo + kBlockRows);
    Pack(lead, digits, lo, hi, block);
    for (size_t t = 0; t < hi - lo; ++t) {
      ++start[(Hash(block[t]) >> shift_bucket) + 1];
    }
  }
  uint32_t sum = 0;
  for (uint32_t& at : start) {
    const uint32_t size = at;
    at = sum;
    sum += size;
  }
  // Pass 2: scatter the keys (and, to relabel, their rows) by bucket.
  // start[b + 1] is bucket b's write cursor: it begins where bucket b
  // begins and ends where it ends.
  scratch->part_keys.resize(n);
  if (relabel) scratch->part_rows.resize(n);
  for (size_t lo = 0; lo < n; lo += kBlockRows) {
    const size_t hi = std::min<size_t>(n, lo + kBlockRows);
    Pack(lead, digits, lo, hi, block);
    for (size_t t = 0; t < hi - lo; ++t) {
      const uint32_t at = start[(Hash(block[t]) >> shift_bucket) + 1]++;
      scratch->part_keys[at] = block[t];
      if (relabel) scratch->part_rows[at] = static_cast<uint32_t>(lo + t);
    }
  }
  // Pass 3: each bucket through a table sized for its own rows, and for
  // no more distinct keys than `radix` allows. Slots are chosen by the
  // hash bits below the bucket bits; `value` 0 marks an empty slot. A
  // relabel overwrites `ids` only now, after `lead` (which may be `ids`)
  // has been read in full.
  if (relabel) scratch->ids.resize(n);
  uint64_t groups = 0;
  std::vector<Slot>& table = scratch->table;
  std::vector<uint32_t>& used = scratch->used;
  for (size_t b = 0; b < buckets_; ++b) {
    const uint32_t lo = start[b];
    const uint32_t hi = start[b + 1];
    if (lo == hi) continue;
    const size_t capacity =
        std::bit_ceil(2 * std::min<uint64_t>(hi - lo, radix));
    if (table.size() < capacity) table.resize(capacity);
    const size_t mask = capacity - 1;
    const int shift = 64 - std::countr_zero(capacity);
    for (uint32_t at = lo; at < hi; ++at) {
      const uint64_t key = scratch->part_keys[at];
      size_t slot = (Hash(key) << bucket_bits_) >> shift;
      while (table[slot].value != 0 && table[slot].key != key) {
        slot = (slot + 1) & mask;
      }
      Slot& s = table[slot];
      if (s.value == 0) {
        s.key = key;
        used.push_back(static_cast<uint32_t>(slot));
        // A relabel stores the group id + 1; a count starts at 0.
        s.value = relabel ? static_cast<uint32_t>(++groups) : 0;
      }
      if (relabel) {
        scratch->ids[scratch->part_rows[at]] = s.value - 1;
      } else {
        ++s.value;
      }
    }
    for (uint32_t slot : used) {
      if (!relabel) scratch->counts.push_back(table[slot].value);
      table[slot].value = 0;
    }
    if (!relabel) groups += used.size();
    used.clear();
  }
  return groups;
}

void EntropyOracle::MemoPut(fd::AttributeSet x, double h) {
  if (options_.memo_entries == 0) return;
  auto it = memo_.find(x.bits());
  if (it != memo_.end()) {
    memo_order_.erase(it->second.where);
    memo_order_.push_front(x.bits());
    it->second = {h, memo_order_.begin()};
    return;
  }
  while (memo_.size() >= options_.memo_entries) {
    memo_.erase(memo_order_.back());
    memo_order_.pop_back();
  }
  memo_order_.push_front(x.bits());
  memo_.emplace(x.bits(), MemoEntry{h, memo_order_.begin()});
}

bool EntropyOracle::MemoGet(fd::AttributeSet x, double* h) {
  auto it = memo_.find(x.bits());
  if (it == memo_.end()) return false;
  memo_order_.erase(it->second.where);
  memo_order_.push_front(x.bits());
  it->second.where = memo_order_.begin();
  *h = it->second.h;
  return true;
}

}  // namespace limbo::schemes
