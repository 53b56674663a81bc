// A small JSON reader for checking the program's documents without
// using the program's own parser.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace iqb_perf::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  /// Member lookup; null if absent or not an object.
  const Value* get(const std::string& key) const;
};

/// Parse a complete document; false on any syntax error.
bool parse(std::string_view text, Value& out);

}  // namespace iqb_perf::json
