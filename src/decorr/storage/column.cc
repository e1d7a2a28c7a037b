#include "decorr/storage/column.h"

#include "decorr/common/logging.h"

namespace decorr {

void Column::Append(const Value& v) {
  if (v.is_null()) {
    // The first NULL creates the map: every earlier row is non-NULL.
    if (nulls_.empty()) nulls_.resize(size_, 0);
    nulls_.push_back(1);
    ++size_;
    switch (type_) {
      case TypeId::kBool:
      case TypeId::kInt64:
        i64_.push_back(0);
        break;
      case TypeId::kDouble:
        dbl_.push_back(0.0);
        break;
      case TypeId::kString:
        str_.emplace_back();
        break;
      default:
        break;
    }
    return;
  }
  if (has_nulls()) nulls_.push_back(0);
  ++size_;
  switch (type_) {
    case TypeId::kBool:
      DECORR_CHECK(v.type() == TypeId::kBool);
      i64_.push_back(v.bool_value() ? 1 : 0);
      break;
    case TypeId::kInt64:
      DECORR_CHECK(v.type() == TypeId::kInt64);
      i64_.push_back(v.int64_value());
      break;
    case TypeId::kDouble:
      DECORR_CHECK(v.type() == TypeId::kInt64 || v.type() == TypeId::kDouble);
      dbl_.push_back(v.AsDouble());
      break;
    case TypeId::kString:
      DECORR_CHECK(v.type() == TypeId::kString);
      str_.emplace_back(v.string_value());
      break;
    default:
      DECORR_CHECK_MSG(false, "column of NULL type cannot store values");
  }
}

}  // namespace decorr
