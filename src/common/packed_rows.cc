#include "common/packed_rows.h"

#include <cstring>

namespace qpi {

void PackedRows::AppendValue(const Value& v) {
  uint64_t cell = 0;
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      cell = static_cast<uint64_t>(v.AsInt64());
      break;
    case ValueType::kDouble: {
      double d = v.AsDouble();
      std::memcpy(&cell, &d, sizeof(cell));
      break;
    }
    case ValueType::kString: {
      const std::string& s = v.AsString();
      cell = strings_.size();
      uint32_t len = static_cast<uint32_t>(s.size());
      QPI_CHECK(len == s.size());
      const char* len_bytes = reinterpret_cast<const char*>(&len);
      strings_.insert(strings_.end(), len_bytes, len_bytes + sizeof(len));
      strings_.insert(strings_.end(), s.begin(), s.end());
      break;
    }
  }
  cells_.push_back(cell);
  tags_.push_back(v.type());
}

void PackedRows::Append(const Row& row) {
  QPI_CHECK(row.size() == width_);
  for (const Value& v : row) AppendValue(v);
  ++size_;
}

void PackedRows::AppendColumns(const Row& row,
                               const std::vector<size_t>& cols) {
  QPI_CHECK(cols.size() == width_);
  for (size_t c : cols) AppendValue(row[c]);
  ++size_;
}

std::string_view PackedRows::StringAt(uint64_t cell) const {
  uint32_t len;
  std::memcpy(&len, strings_.data() + cell, sizeof(len));
  return std::string_view(strings_.data() + cell + sizeof(len), len);
}

void PackedRows::GatherInto(size_t i, Value* dst) const {
  const uint64_t* cells = cells_.data() + i * width_;
  const ValueType* tags = tags_.data() + i * width_;
  for (size_t c = 0; c < width_; ++c) {
    switch (tags[c]) {
      case ValueType::kNull:
        dst[c].SetNull();
        break;
      case ValueType::kInt64:
        dst[c].SetInt64(static_cast<int64_t>(cells[c]));
        break;
      case ValueType::kDouble: {
        double d;
        std::memcpy(&d, &cells[c], sizeof(d));
        dst[c].SetDouble(d);
        break;
      }
      case ValueType::kString: {
        std::string_view s = StringAt(cells[c]);
        dst[c].SetString(s.data(), s.size());
        break;
      }
    }
  }
}

void PackedRows::Gather(size_t i, Row* out) const {
  out->resize(width_);
  GatherInto(i, out->data());
}

bool PackedRows::CellEquals(size_t i, size_t col, const PackedRows& other,
                            size_t j, size_t other_col) const {
  ValueType ta = tags_[i * width_ + col];
  ValueType tb = other.tags_[j * other.width_ + other_col];
  uint64_t a = cells_[i * width_ + col];
  uint64_t b = other.cells_[j * other.width_ + other_col];
  // Mirrors Value::Compare case by case.
  if (ta == ValueType::kNull || tb == ValueType::kNull) return ta == tb;
  if (ta == ValueType::kString || tb == ValueType::kString) {
    QPI_DCHECK(ta == tb);
    std::string_view sa = ta == ValueType::kString ? StringAt(a) : "";
    std::string_view sb = tb == ValueType::kString ? other.StringAt(b) : "";
    return sa == sb;
  }
  if (ta == ValueType::kInt64 && tb == ValueType::kInt64) return a == b;
  auto as_double = [](ValueType t, uint64_t cell) {
    if (t == ValueType::kInt64) {
      return static_cast<double>(static_cast<int64_t>(cell));
    }
    double d;
    std::memcpy(&d, &cell, sizeof(d));
    return d;
  };
  double da = as_double(ta, a);
  double db = as_double(tb, b);
  return !(da < db) && !(da > db);
}

void PackedRows::Clear() {
  size_ = 0;
  cells_.clear();
  tags_.clear();
  strings_.clear();
}

}  // namespace qpi
