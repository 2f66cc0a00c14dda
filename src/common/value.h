#ifndef QPI_COMMON_VALUE_H_
#define QPI_COMMON_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/check.h"

namespace qpi {

/// Physical type of a column or value.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

/// Name of a ValueType for error messages and schema dumps.
const char* ValueTypeName(ValueType type);

/// \brief A dynamically-typed scalar: NULL, INT64, DOUBLE or STRING.
///
/// The engine is row-oriented; a tuple is a vector of Values. Join and
/// grouping attributes in the reproduced experiments are integers (TPC-H
/// keys), so the integer path is kept branch-light; strings exist for
/// payload realism in the generated tables.
class Value {
 public:
  Value() : type_(ValueType::kNull), i_(0), d_(0) {}
  explicit Value(int64_t v) : type_(ValueType::kInt64), i_(v), d_(0) {}
  explicit Value(double v) : type_(ValueType::kDouble), i_(0), d_(v) {}
  explicit Value(std::string v)
      : type_(ValueType::kString), i_(0), d_(0), s_(std::move(v)) {}

  static Value Null() { return Value(); }

  /// In-place setters, equal to assigning the matching constructor's
  /// result but keeping the string buffer's capacity: refilling a
  /// recycled row slot allocates nothing in steady state.
  void SetNull() { Set(ValueType::kNull, 0, 0); }
  void SetInt64(int64_t v) { Set(ValueType::kInt64, v, 0); }
  void SetDouble(double v) { Set(ValueType::kDouble, 0, v); }
  void SetString(const char* data, size_t size) {
    type_ = ValueType::kString;
    i_ = 0;
    d_ = 0;
    s_.assign(data, size);
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  int64_t AsInt64() const {
    QPI_DCHECK(type_ == ValueType::kInt64);
    return i_;
  }
  double AsDouble() const {
    QPI_DCHECK(type_ == ValueType::kDouble || type_ == ValueType::kInt64);
    return type_ == ValueType::kDouble ? d_ : static_cast<double>(i_);
  }
  const std::string& AsString() const {
    QPI_DCHECK(type_ == ValueType::kString);
    return s_;
  }

  /// Total ordering (NULL < everything; cross numeric types compare as
  /// doubles). Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable 64-bit hash (used by hash joins, aggregation and histograms).
  uint64_t Hash() const;

  std::string ToString() const;

 private:
  void Set(ValueType type, int64_t i, double d) {
    type_ = type;
    i_ = i;
    d_ = d;
    s_.clear();
  }

  ValueType type_;
  int64_t i_;
  double d_;
  std::string s_;
};

}  // namespace qpi

namespace std {
template <>
struct hash<qpi::Value> {
  size_t operator()(const qpi::Value& v) const noexcept {
    return static_cast<size_t>(v.Hash());
  }
};
}  // namespace std

#endif  // QPI_COMMON_VALUE_H_
