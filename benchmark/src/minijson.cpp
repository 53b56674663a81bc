#include "minijson.hpp"

#include <cstdlib>

namespace iqb_perf::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool document(Value& out) {
    if (!value(out)) return false;
    skip_space();
    return pos_ == text_.size();
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char escaped = text_[pos_++];
        switch (escaped) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            const long code = std::strtol(
                std::string(text_.substr(pos_, 4)).c_str(), nullptr, 16);
            pos_ += 4;
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: c = escaped; break;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }

  bool value(Value& out) {
    skip_space();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      out.type = Value::Type::kObject;
      ++pos_;
      skip_space();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        skip_space();
        std::string key;
        if (!string(key)) return false;
        skip_space();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
        if (!value(out.object[key])) return false;
        skip_space();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      out.type = Value::Type::kArray;
      ++pos_;
      skip_space();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        out.array.emplace_back();
        if (!value(out.array.back())) return false;
        skip_space();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out.type = Value::Type::kString;
      return string(out.string);
    }
    if (literal("true")) {
      out.type = Value::Type::kBool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.type = Value::Type::kBool;
      return true;
    }
    if (literal("null")) return true;
    // Number: strtod over the maximal run of number characters.
    std::size_t end = pos_;
    while (end < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[end]) !=
               std::string_view::npos) {
      ++end;
    }
    if (end == pos_) return false;
    const std::string token(text_.substr(pos_, end - pos_));
    char* parsed_end = nullptr;
    out.type = Value::Type::kNumber;
    out.number = std::strtod(token.c_str(), &parsed_end);
    if (parsed_end != token.c_str() + token.size()) return false;
    pos_ = end;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::get(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

bool parse(std::string_view text, Value& out) {
  out = Value{};
  return Parser(text).document(out);
}

}  // namespace iqb_perf::json
