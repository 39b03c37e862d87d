#include "obs/json.h"

#include <cmath>
#include <cstdio>

namespace ppsc {
namespace obs {

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::optional<std::string> json_unescape(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    const char c = escaped[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= escaped.size()) return std::nullopt;
    switch (escaped[i]) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case '/':
        out += '/';
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        if (i + 4 >= escaped.size()) return std::nullopt;
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = escaped[++i];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return std::nullopt;
          }
        }
        // The escaper only emits \u00XX for control bytes; decoding
        // stays within one byte and rejects anything wider.
        if (code > 0xff) return std::nullopt;
        out += static_cast<char>(code);
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return out;
}

void JsonWriter::separator() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  has_element_.pop_back();
  if (has_element_.empty()) wrote_top_level_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  has_element_.pop_back();
  if (has_element_.empty()) wrote_top_level_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  separator();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& text) {
  separator();
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
  if (has_element_.empty()) wrote_top_level_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string(text));
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  separator();
  out_ += std::to_string(number);
  if (has_element_.empty()) wrote_top_level_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  separator();
  out_ += std::to_string(number);
  if (has_element_.empty()) wrote_top_level_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(int number) {
  return value(static_cast<std::int64_t>(number));
}

JsonWriter& JsonWriter::value(double number) {
  separator();
  if (!std::isfinite(number)) {
    out_ += '0';  // NaN / inf have no JSON spelling
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", number);
    out_ += buffer;
  }
  if (has_element_.empty()) wrote_top_level_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separator();
  out_ += flag ? "true" : "false";
  if (has_element_.empty()) wrote_top_level_ = true;
  return *this;
}

}  // namespace obs
}  // namespace ppsc
