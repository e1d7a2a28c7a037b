#include "decorr/runtime/csv.h"

#include <cstdlib>

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"

namespace decorr {

namespace {

// A raw field plus whether it was quoted (distinguishes NULL from "").
struct RawField {
  std::string text;
  bool quoted = false;
};

Result<std::vector<std::vector<RawField>>> ParseRaw(const std::string& text) {
  std::vector<std::vector<RawField>> rows;
  std::vector<RawField> row;
  RawField field;
  size_t i = 0;
  const size_t n = text.size();
  bool in_row = false;
  while (i < n) {
    const char c = text[i];
    if (c == '"') {
      field.quoted = true;
      in_row = true;
      ++i;
      bool closed = false;
      while (i < n) {
        if (text[i] == '"') {
          if (i + 1 < n && text[i + 1] == '"') {
            field.text += '"';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        field.text += text[i++];
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated quote in CSV input");
      }
      continue;
    }
    if (c == ',') {
      row.push_back(std::move(field));
      field = RawField();
      in_row = true;
      ++i;
      continue;
    }
    if (c == '\n' || c == '\r') {
      if (in_row || !field.text.empty() || field.quoted) {
        row.push_back(std::move(field));
        rows.push_back(std::move(row));
        row.clear();
        field = RawField();
        in_row = false;
      }
      // Swallow \r\n pairs and blank lines.
      ++i;
      continue;
    }
    field.text += c;
    in_row = true;
    ++i;
  }
  if (in_row || !field.text.empty() || field.quoted) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<Value> ParseField(const RawField& field, const ColumnDef& column) {
  if (!field.quoted && field.text.empty()) return Value::Null();
  switch (column.type) {
    case TypeId::kBool:
      if (EqualsIgnoreCase(field.text, "true") || field.text == "1") {
        return Value::Bool(true);
      }
      if (EqualsIgnoreCase(field.text, "false") || field.text == "0") {
        return Value::Bool(false);
      }
      return Status::InvalidArgument("bad BOOL value in CSV: " + field.text);
    case TypeId::kInt64: {
      char* end = nullptr;
      const long long v = std::strtoll(field.text.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("bad INT64 value in CSV: " +
                                       field.text);
      }
      return Value::Int64(v);
    }
    case TypeId::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(field.text.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("bad DOUBLE value in CSV: " +
                                       field.text);
      }
      return Value::Double(v);
    }
    case TypeId::kString:
      return Value::String(field.text);
    default:
      return Status::InvalidArgument("column with unsupported type");
  }
}

bool NeedsQuoting(std::string_view s) {
  if (s.empty()) return true;  // empty string must be quoted (else NULL)
  return s.find_first_of(",\"\n\r") != std::string_view::npos;
}

std::string FieldToCsv(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return "";
    case TypeId::kString:
      break;
    case TypeId::kBool:
      return v.bool_value() ? "true" : "false";
    default:
      return v.ToString();
  }
  const std::string_view text = v.string_value();
  if (!NeedsQuoting(text)) return std::string(text);
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

std::string RowToCsv(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ",";
    out += FieldToCsv(row[i]);
  }
  out += "\n";
  return out;
}

}  // namespace

Result<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text) {
  DECORR_ASSIGN_OR_RETURN(auto raw, ParseRaw(text));
  std::vector<std::vector<std::string>> out;
  out.reserve(raw.size());
  for (auto& row : raw) {
    std::vector<std::string> fields;
    fields.reserve(row.size());
    for (auto& field : row) fields.push_back(std::move(field.text));
    out.push_back(std::move(fields));
  }
  return out;
}

Result<int64_t> ImportCsv(Database* db, const std::string& table,
                          const std::string& text, bool header) {
  DECORR_FAULT_POINT("storage.csv.import");
  DECORR_ASSIGN_OR_RETURN(TablePtr target, db->catalog().GetTable(table));
  DECORR_ASSIGN_OR_RETURN(auto raw, ParseRaw(text));
  const TableSchema& schema = target->schema();
  // Parse up to the first malformed row; the rows before it are appended
  // (through the catalog, which keeps the table's indexes current) either
  // way, as a row-at-a-time import would have.
  std::vector<Row> rows;
  Status parsed;
  for (size_t r = header ? 1 : 0; r < raw.size() && parsed.ok(); ++r) {
    const auto& fields = raw[r];
    if (static_cast<int>(fields.size()) != schema.num_columns()) {
      parsed = Status::InvalidArgument(
          StrFormat("CSV row %zu has %zu fields, table %s expects %d", r,
                    fields.size(), table.c_str(), schema.num_columns()));
      continue;
    }
    Row row;
    row.reserve(fields.size());
    for (int c = 0; c < schema.num_columns() && parsed.ok(); ++c) {
      Result<Value> v = ParseField(fields[c], schema.column(c));
      if (v.ok()) {
        row.push_back(v.MoveValue());
      } else {
        parsed = v.status();
      }
    }
    if (parsed.ok()) rows.push_back(std::move(row));
  }
  const Status appended = db->catalog().AppendRows(table, rows);
  DECORR_RETURN_IF_ERROR(parsed);
  DECORR_RETURN_IF_ERROR(appended);
  return static_cast<int64_t>(rows.size());
}

std::string ExportCsv(const QueryResult& result) {
  std::string out = Join(result.column_names, ",") + "\n";
  for (const Row& row : result.rows) out += RowToCsv(row);
  return out;
}

std::string ExportTableCsv(const Table& table) {
  std::vector<std::string> names;
  for (const ColumnDef& col : table.schema().columns()) {
    names.push_back(col.name);
  }
  std::string out = Join(names, ",") + "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    out += RowToCsv(table.GetRow(r));
  }
  return out;
}

}  // namespace decorr
