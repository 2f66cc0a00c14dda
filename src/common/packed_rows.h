#ifndef QPI_COMMON_PACKED_ROWS_H_
#define QPI_COMMON_PACKED_ROWS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/row.h"

namespace qpi {

/// \brief An append-only buffer of fixed-width rows stored without a heap
/// object per row.
///
/// Each row is `width` 8-byte cells plus one `ValueType` tag per cell:
/// an INT64 cell holds the integer, a DOUBLE cell the IEEE bit pattern, a
/// STRING cell the offset of a length-prefixed copy in one side vector of
/// characters, a NULL cell zero. The round trip through Append and Gather
/// is exact — every tag, -0.0, NaN payloads, empty and long strings —
/// and CellEquals reproduces `Value::Compare(...) == 0` on the stored
/// cells, so operators can match keys without materializing a Row.
///
/// Append copies the values out and leaves the source row untouched, so
/// a producer's batch slots keep their storage for the next refill;
/// Gather writes into a caller-owned row through the in-place Value
/// setters, so a recycled slot is refilled without allocating. Clear()
/// keeps capacity for reuse.
class PackedRows {
 public:
  explicit PackedRows(size_t width = 0) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return size_; }

  /// Append `row`, which must have exactly width() values.
  void Append(const Row& row);
  /// Append the projection `row[cols[0]], row[cols[1]], ...`
  /// (`cols.size()` must equal width()).
  void AppendColumns(const Row& row, const std::vector<size_t>& cols);

  /// Overwrite `*out` with row `i`, reusing its storage.
  void Gather(size_t i, Row* out) const;
  /// Write row `i`'s width() values to `dst[0 .. width())`.
  void GatherInto(size_t i, Value* dst) const;

  /// True iff cell (i, col) equals cell (j, other_col) of `other` under
  /// Value::Compare (NULL equals only NULL; numerics compare as doubles
  /// unless both are INT64; strings compare bytewise).
  bool CellEquals(size_t i, size_t col, const PackedRows& other, size_t j,
                  size_t other_col) const;

  /// Drop every row; keeps the allocated capacity.
  void Clear();

 private:
  void AppendValue(const Value& v);
  std::string_view StringAt(uint64_t cell) const;

  size_t width_;
  size_t size_ = 0;
  std::vector<uint64_t> cells_;
  std::vector<ValueType> tags_;
  std::vector<char> strings_;
};

}  // namespace qpi

#endif  // QPI_COMMON_PACKED_ROWS_H_
