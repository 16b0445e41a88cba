#ifndef LIMBO_SCHEMES_ENTROPY_ORACLE_H_
#define LIMBO_SCHEMES_ENTROPY_ORACLE_H_

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "fd/attribute_set.h"
#include "relation/row_source.h"
#include "util/parallel.h"
#include "util/result.h"

namespace limbo::schemes {

struct EntropyOracleOptions {
  /// Lane count for the counting work; 0 = DefaultThreadCount().
  size_t threads = 0;
  /// Bound on memoized H(X) entries kept across queries (LRU).
  size_t memo_entries = 4096;
};

/// Computes H(X) — the Shannon entropy of the projection of a relation
/// onto an attribute subset X — for batches of subsets. This is the
/// entropy-over-attribute-sets core that approximate acyclic scheme
/// mining (Kenig et al.) shares with FD-RANK: both reduce to "how
/// concentrated is the distribution of distinct value combinations
/// under X".
///
/// Mechanics:
///  - Load once. The first query that needs counting streams the source
///    one time and interns every field into a dense per-attribute code
///    (0 .. d_a - 1), stored column-major. The source is never read
///    again, so the oracle holds O(n·m) 4-byte codes and no strings.
///  - Packed keys. A set X = {a1 < a2 < ...} gets one 64-bit key per row
///    in mixed radix over the domain sizes d_a1, d_a2, .... When the
///    running radix would overflow 64 bits, the partial keys are first
///    relabeled to dense group ids (< n) and packing continues from
///    there, so keys stay exact at any width with no hash-and-verify.
///  - Cache-sized counting. Keys are packed a block of rows at a time (no
///    n-sized key array) and partitioned by the top bits of their hash
///    into buckets of about a thousand rows, and each bucket is
///    counted in a private open-addressing table of twice its rows (fewer
///    when the radix bounds the distinct keys), cleared through its
///    used-slot list. The table stays in the lane's cache, so the cost of a
///    set tracks the CPU rather than the shared memory system. The counts
///    fold through relation::EntropyFromCounts.
///  - One lane per set. Each lane claims the next uncounted set and counts
///    it whole. The counts multiset of a set does not depend on the lane
///    or on the bucket order, so results are bit-identical at every lane
///    count. Memory is the codes plus O(n) per lane.
///
/// A bounded LRU memo keyed by the subset bitmask absorbs the heavy
/// re-query traffic the miner generates (H(X) is asked for under many
/// separators).
///
/// The oracle borrows `source`, Resets it before its one load pass and
/// leaves it at end of data; callers must not interleave their own reads
/// with the first counted query.
class EntropyOracle {
 public:
  EntropyOracle(relation::RowSource& source,
                const EntropyOracleOptions& options = {});

  /// Entropy of one subset. Memoized; H(empty) = 0 without loading.
  util::Result<double> H(fd::AttributeSet x);

  /// Entropies of many subsets (minus whatever the memo already holds),
  /// counted in parallel over the loaded columns. Result order matches
  /// `sets`; duplicate sets are counted once. How queries are split into
  /// batches never changes a result: each set's counts are exact and
  /// folded independently.
  util::Result<std::vector<double>> HBatch(
      const std::vector<fd::AttributeSet>& sets);

  /// Rows loaded from the source (0 before the first counted query).
  uint64_t num_rows() const { return num_rows_; }

  size_t num_attributes() const { return num_attributes_; }

  struct Stats {
    uint64_t passes = 0;        // streams over the source: 0, then 1
    uint64_t rows_read = 0;     // rows decoded from the source
    uint64_t sets_counted = 0;  // subsets resolved by counting
    uint64_t memo_hits = 0;     // subsets resolved from the memo
  };
  const Stats& stats() const { return stats_; }

 private:
  /// A slot of a bucket's open-addressing table; `value` 0 = empty.
  struct Slot {
    uint64_t key = 0;
    uint32_t value = 0;
  };
  /// A lane's counting scratch: a block of packed keys, the keys (and
  /// rows) partitioned by hash bucket, the bucket table and its used-slot
  /// list, the group ids of a relabel and the group counts of the set
  /// being counted.
  struct Scratch {
    std::vector<uint64_t> block;
    std::vector<uint64_t> part_keys;
    std::vector<uint32_t> part_rows;
    std::vector<uint32_t> bucket_start;
    std::vector<Slot> table;
    std::vector<uint32_t> used;
    std::vector<uint32_t> ids;
    std::vector<uint64_t> counts;
  };

  /// Streams the source once and interns it into `columns_`.
  util::Status Load();
  /// H(x) for a non-empty x from the loaded columns.
  double Count(fd::AttributeSet x, Scratch* scratch) const;
  /// Packs the keys of rows [lo, hi) into `keys`: the `lead` digit, then
  /// one mixed-radix digit per attribute of `digits`.
  void Pack(const uint32_t* lead, std::span<const relation::AttributeId> digits,
            size_t lo, size_t hi, uint64_t* keys) const;
  /// Groups the rows by their packed key (every key < `radix`): the keys
  /// are partitioned by the top bits of their hash and each bucket is
  /// counted in a small table. With `relabel`, writes each row's dense
  /// group id to `scratch->ids`; otherwise appends each group's row count
  /// to `scratch->counts`. Returns the group count.
  uint64_t Group(const uint32_t* lead,
                 std::span<const relation::AttributeId> digits, uint64_t radix,
                 bool relabel, Scratch* scratch) const;

  void MemoPut(fd::AttributeSet x, double h);
  bool MemoGet(fd::AttributeSet x, double* h);

  relation::RowSource* source_;
  EntropyOracleOptions options_;
  util::ThreadPool pool_;
  size_t num_attributes_ = 0;
  uint64_t num_rows_ = 0;
  bool loaded_ = false;
  int bucket_bits_ = 1;  // Group's hash buckets: 2^bucket_bits_
  size_t buckets_ = 2;
  std::vector<std::vector<uint32_t>> columns_;  // columns_[a][row]
  std::vector<uint64_t> domain_;                // distinct codes per column
  std::vector<Scratch> scratch_;                // one per lane
  Stats stats_;

  // LRU memo: map from subset bits to (entropy, position in the recency
  // list); the list front is most recent.
  struct MemoEntry {
    double h = 0.0;
    std::list<uint64_t>::iterator where;
  };
  std::unordered_map<uint64_t, MemoEntry> memo_;
  std::list<uint64_t> memo_order_;
};

}  // namespace limbo::schemes

#endif  // LIMBO_SCHEMES_ENTROPY_ORACLE_H_
