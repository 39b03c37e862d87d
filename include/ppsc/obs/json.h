// Minimal hand-rolled JSON writer for the observability pipeline.
//
// The obs subsystem must serialize metric snapshots and bench reports
// without pulling a JSON dependency into the build, so this is a small
// streaming writer: explicit begin/end calls for objects and arrays,
// `key` + `value` inside objects, commas and escaping handled here.
// Output is deterministic -- the writer emits exactly what it is fed,
// in call order, with no whitespace -- so serialized snapshots can be
// compared byte-for-byte in tests and goldens.
//
// Escaping follows RFC 8259: '"', '\\' and control characters below
// 0x20 are escaped (the common ones by shorthand, the rest as \u00XX);
// all other bytes pass through untouched, so UTF-8 payloads survive.
// json_unescape inverts json_escape and exists for the round-trip
// tests; it rejects malformed escapes by returning std::nullopt.

#ifndef PPSC_OBS_JSON_H
#define PPSC_OBS_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ppsc {
namespace obs {

std::string json_escape(const std::string& raw);
std::optional<std::string> json_unescape(const std::string& escaped);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Object member key; must be followed by a value or container begin.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& text);
  JsonWriter& value(const char* text);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number);
  // Doubles print with %.17g (shortest round-trippable is overkill for
  // metrics; 17 significant digits always round-trips). NaN and
  // infinities are not representable in JSON and serialize as 0.
  JsonWriter& value(double number);
  JsonWriter& value(bool flag);

  // The document so far. Complete (all containers closed) iff done().
  const std::string& str() const { return out_; }
  bool done() const { return has_element_.empty() && wrote_top_level_; }

 private:
  void separator();

  std::string out_;
  // True right after key(): the next token is this member's value and
  // must not be preceded by a comma.
  bool after_key_ = false;
  // One entry per open container, innermost last: true once it holds
  // an element.
  std::vector<bool> has_element_;
  bool wrote_top_level_ = false;
};

}  // namespace obs
}  // namespace ppsc

#endif  // PPSC_OBS_JSON_H
