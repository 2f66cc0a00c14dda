// PackedRows: the packed row buffer behind grace-join partitions and
// morsel results. Append → Gather must round-trip every value bit-exactly
// (every tag, -0.0, NaN payloads, infinities, empty/short/long strings,
// embedded NULs), also into recycled slots that held other values, and
// CellEquals must agree with Value::Compare(...) == 0 on every pair.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/packed_rows.h"

namespace qpi {
namespace {

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

double FromBits(uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

/// Type and exact representation agree (doubles by bit pattern).
void ExpectIdentical(const Value& a, const Value& b) {
  ASSERT_EQ(a.type(), b.type());
  switch (a.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      EXPECT_EQ(a.AsInt64(), b.AsInt64());
      break;
    case ValueType::kDouble:
      EXPECT_EQ(Bits(a.AsDouble()), Bits(b.AsDouble()));
      break;
    case ValueType::kString:
      EXPECT_EQ(a.AsString(), b.AsString());
      break;
  }
}

std::vector<Value> Samples() {
  return {
      Value::Null(),
      Value(int64_t{0}),
      Value(int64_t{-7}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(0.0),
      Value(-0.0),
      Value(2.0),
      Value(1.5),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(FromBits(0xfff8000000000123ULL)),  // NaN with sign and payload
      Value(std::numeric_limits<double>::infinity()),
      Value(-std::numeric_limits<double>::infinity()),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(std::string()),
      Value(std::string("x")),
      Value(std::string("fifteen chars!!")),
      Value(std::string("sixteen chars!!!")),
      Value(std::string(100, 'q')),
      Value(std::string("nul\0inside", 10)),
  };
}

TEST(PackedRows, RoundTripIsExact) {
  std::vector<Value> values = Samples();
  const size_t width = 3;
  PackedRows packed(width);
  std::vector<Row> rows;
  // Every value lands in every column position.
  for (size_t i = 0; i < values.size(); ++i) {
    Row row;
    for (size_t c = 0; c < width; ++c) {
      row.push_back(values[(i + c) % values.size()]);
    }
    packed.Append(row);
    rows.push_back(row);
  }
  ASSERT_EQ(packed.size(), rows.size());
  EXPECT_EQ(packed.width(), width);

  // Fresh rows and one recycled slot refilled in turn (it holds whatever
  // the previous row left, long strings included).
  Row slot;
  for (size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    Row fresh;
    packed.Gather(i, &fresh);
    packed.Gather(i, &slot);
    ASSERT_EQ(fresh.size(), width);
    ASSERT_EQ(slot.size(), width);
    for (size_t c = 0; c < width; ++c) {
      ExpectIdentical(fresh[c], rows[i][c]);
      ExpectIdentical(slot[c], rows[i][c]);
    }
  }
}

TEST(PackedRows, GatherIntoWiderSlotResizes) {
  PackedRows packed(1);
  packed.Append(Row{Value(std::string(40, 'a'))});
  Row slot{Value(int64_t{1}), Value(2.0), Value(std::string(50, 'b'))};
  packed.Gather(0, &slot);
  ASSERT_EQ(slot.size(), 1u);
  EXPECT_EQ(slot[0].AsString(), std::string(40, 'a'));
}

TEST(PackedRows, AppendColumnsProjects) {
  Row row{Value(int64_t{1}), Value(std::string("mid")), Value(-0.0)};
  PackedRows packed(2);
  packed.AppendColumns(row, {2, 1});
  Row out;
  packed.Gather(0, &out);
  ASSERT_EQ(out.size(), 2u);
  ExpectIdentical(out[0], row[2]);
  ExpectIdentical(out[1], row[1]);
}

TEST(PackedRows, CellEqualsMatchesValueCompare) {
  std::vector<Value> values = Samples();
  PackedRows a(1);
  PackedRows b(2);
  for (const Value& v : values) {
    a.Append(Row{v});
    b.Append(Row{Value::Null(), v});  // a different width and column
  }
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      bool si = values[i].type() == ValueType::kString;
      bool sj = values[j].type() == ValueType::kString;
      bool ni = values[i].is_null();
      bool nj = values[j].is_null();
      // Value::Compare only defines string-vs-string among strings.
      if (si != sj && !ni && !nj) continue;
      SCOPED_TRACE(values[i].ToString() + " vs " + values[j].ToString());
      EXPECT_EQ(a.CellEquals(i, 0, b, j, 1),
                values[i].Compare(values[j]) == 0);
    }
  }
}

TEST(PackedRows, ClearThenReuse) {
  PackedRows packed(1);
  packed.Append(Row{Value(std::string(30, 'z'))});
  packed.Clear();
  EXPECT_EQ(packed.size(), 0u);
  packed.Append(Row{Value(int64_t{9})});
  ASSERT_EQ(packed.size(), 1u);
  Row out;
  packed.Gather(0, &out);
  EXPECT_EQ(out[0].AsInt64(), 9);
}

TEST(ValueSetters, EqualTheConstructors) {
  Value v(std::string(40, 'w'));
  v.SetInt64(5);
  ExpectIdentical(v, Value(int64_t{5}));
  EXPECT_EQ(v.ToString(), "5");
  v.SetDouble(-0.0);
  ExpectIdentical(v, Value(-0.0));
  v.SetString("abc", 3);
  ExpectIdentical(v, Value(std::string("abc")));
  v.SetNull();
  ExpectIdentical(v, Value::Null());
  EXPECT_EQ(v.Hash(), Value::Null().Hash());
}

}  // namespace
}  // namespace qpi
