#include "snd/api/json_codec.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "snd/service/options_parse.h"
#include "snd/service/session.h"  // ValidSessionName.
#include "snd/util/format.h"

namespace snd {
namespace {

// ---------------------------------------------------------------------
// A minimal strict JSON reader: just enough of RFC 8259 for the request
// grammar (objects of strings, numbers, and flat arrays), with no
// dependencies. Strictness is deliberate — a malformed request must
// fail loudly, naming the problem, not half-parse.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
// std::map keeps duplicate detection and deterministic iteration simple.
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value = nullptr;

  bool is_string() const {
    return std::holds_alternative<std::string>(value);
  }
  bool is_number() const { return std::holds_alternative<double>(value); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  // Parses exactly one JSON value spanning the whole input (trailing
  // whitespace allowed). On failure returns kInvalidArgument with a
  // message prefixed "invalid json:".
  StatusOr<JsonValue> Parse() {
    StatusOr<JsonValue> value = ParseValue();
    if (!value.ok()) return value;
    SkipSpace();
    if (p_ != end_) return Fail("trailing characters after value");
    return value;
  }

 private:
  Status Fail(const std::string& what) {
    return Status::InvalidArgument("invalid json: " + what + " at offset " +
                                   std::to_string(p_ - begin_));
  }

  void SkipSpace() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const char* probe = p_;
    for (const char* l = literal; *l != '\0'; ++l, ++probe) {
      if (probe == end_ || *probe != *l) return false;
    }
    p_ = probe;
    return true;
  }

  StatusOr<JsonValue> ParseValue() {
    SkipSpace();
    if (p_ == end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        StatusOr<std::string> text = ParseString();
        if (!text.ok()) return text.status();
        JsonValue value;
        value.value = *std::move(text);
        return value;
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue{true};
        return Fail("unrecognized literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue{false};
        return Fail("unrecognized literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue{nullptr};
        return Fail("unrecognized literal");
      default:
        return ParseNumber();
    }
  }

  StatusOr<JsonValue> ParseObject() {
    ++p_;  // '{'
    JsonObject object;
    SkipSpace();
    if (Consume('}')) return JsonValue{std::move(object)};
    for (;;) {
      SkipSpace();
      if (p_ == end_ || *p_ != '"') return Fail("expected object key");
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      StatusOr<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      if (!object.emplace(*std::move(key), *std::move(value)).second) {
        return Fail("duplicate object key");
      }
      SkipSpace();
      if (Consume('}')) return JsonValue{std::move(object)};
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++p_;  // '['
    JsonArray array;
    SkipSpace();
    if (Consume(']')) return JsonValue{std::move(array)};
    for (;;) {
      StatusOr<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      array.push_back(*std::move(value));
      SkipSpace();
      if (Consume(']')) return JsonValue{std::move(array)};
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    ++p_;  // '"'
    std::string text;
    while (p_ != end_) {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        return text;
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c != '\\') {
        text += static_cast<char>(c);
        ++p_;
        continue;
      }
      ++p_;  // '\'
      if (p_ == end_) break;
      const char escape = *p_++;
      switch (escape) {
        case '"': text += '"'; break;
        case '\\': text += '\\'; break;
        case '/': text += '/'; break;
        case 'b': text += '\b'; break;
        case 'f': text += '\f'; break;
        case 'n': text += '\n'; break;
        case 'r': text += '\r'; break;
        case 't': text += '\t'; break;
        case 'u': {
          uint32_t code = 0;
          for (int k = 0; k < 4; ++k) {
            if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_)))
              return Fail("invalid \\u escape");
            const char h = *p_++;
            code = code * 16 +
                   static_cast<uint32_t>(
                       std::isdigit(static_cast<unsigned char>(h))
                           ? h - '0'
                           : std::tolower(static_cast<unsigned char>(h)) -
                                 'a' + 10);
          }
          // UTF-8 encode the BMP code point (surrogate pairs — rare in
          // file paths and session names — are rejected, not mangled).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            text += static_cast<char>(code);
          } else if (code < 0x800) {
            text += static_cast<char>(0xC0 | (code >> 6));
            text += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            text += static_cast<char>(0xE0 | (code >> 12));
            text += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            text += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail("unrecognized escape");
      }
    }
    return Fail("unterminated string");
  }

  // Strict RFC 8259 number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?
  // ([eE][+-]?[0-9]+)?. Leading zeros, bare or trailing '.', and values
  // that overflow to infinity are rejected, not guessed at.
  StatusOr<JsonValue> ParseNumber() {
    const char* start = p_;
    Consume('-');
    const char* int_start = p_;
    while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    if (p_ == int_start ||
        (*int_start == '0' && p_ - int_start > 1)) {
      return Fail("malformed number");
    }
    if (Consume('.')) {
      const char* frac_start = p_;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)))
        ++p_;
      if (p_ == frac_start) return Fail("malformed number");
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      const char* exp_start = p_;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)))
        ++p_;
      if (p_ == exp_start) return Fail("malformed number");
    }
    const std::string token(start, p_);
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) return Fail("number out of range");
    return JsonValue{value};
  }

  const char* p_;
  const char* const end_;
  const char* const begin_ = p_;  // Fixed start, for error offsets.
};

// ---------------------------------------------------------------------
// Field extraction helpers: each returns the typed field or a Status
// naming the field and the expectation.

Status UnexpectedFields(const JsonObject& object,
                        std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : object) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unexpected field '" + key + "'");
    }
  }
  return Status::Ok();
}

StatusOr<std::string> StringField(const JsonObject& object,
                                  const std::string& field) {
  const auto it = object.find(field);
  if (it == object.end()) {
    return Status::InvalidArgument("missing field '" + field + "'");
  }
  if (!it->second.is_string()) {
    return Status::InvalidArgument("field '" + field +
                                   "' must be a string");
  }
  return std::get<std::string>(it->second.value);
}

StatusOr<int32_t> IndexField(const JsonObject& object,
                             const std::string& field) {
  const auto it = object.find(field);
  if (it == object.end()) {
    return Status::InvalidArgument("missing field '" + field + "'");
  }
  const double* number = std::get_if<double>(&it->second.value);
  if (number == nullptr || *number < 0 || *number > INT32_MAX ||
      *number != std::floor(*number)) {
    return Status::InvalidArgument("field '" + field +
                                   "' must be a non-negative integer");
  }
  return static_cast<int32_t>(*number);
}

// Optional integer field with a default (subscribe's from/count).
StatusOr<int64_t> OptionalInt64Field(const JsonObject& object,
                                     const std::string& field,
                                     int64_t fallback, bool allow_negative) {
  const auto it = object.find(field);
  if (it == object.end()) return fallback;
  const double* number = std::get_if<double>(&it->second.value);
  // Exact-integer doubles only, within the 2^53 exactness range.
  if (number == nullptr || *number != std::floor(*number) ||
      std::abs(*number) > 9007199254740992.0 ||
      (!allow_negative && *number < 0)) {
    return Status::InvalidArgument(
        "field '" + field + "' must be " +
        (allow_negative ? "an integer" : "a non-negative integer"));
  }
  return static_cast<int64_t>(*number);
}

// The optional "flags" array, parsed with the shared vocabulary so the
// JSON wire reports the same token-naming diagnostics as the text wire.
Status FillComputeBaseFromJson(const JsonObject& object,
                               ComputeRequestBase* base) {
  StatusOr<std::string> name = StringField(object, "name");
  if (!name.ok()) return name.status();
  base->name = *std::move(name);
  std::vector<std::string> flags;
  const auto it = object.find("flags");
  if (it != object.end()) {
    const JsonArray* array = std::get_if<JsonArray>(&it->second.value);
    if (array == nullptr) {
      return Status::InvalidArgument(
          "field 'flags' must be an array of strings");
    }
    for (const JsonValue& element : *array) {
      if (!element.is_string()) {
        return Status::InvalidArgument(
            "field 'flags' must be an array of strings");
      }
      flags.push_back(std::get<std::string>(element.value));
    }
  }
  StatusOr<ParsedSndFlags> parsed = ParseSndFlags(flags);
  if (!parsed.ok()) return parsed.status();
  base->options = parsed->options;
  base->threads = parsed->threads;
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Rendering helpers.

void AppendField(std::string* out, const char* key, const std::string& text) {
  *out += '"';
  *out += key;
  *out += "\":\"";
  *out += JsonEscaped(text);
  *out += '"';
}

std::string JsonNumberArray(const double* values, size_t count) {
  std::string out = "[";
  for (size_t k = 0; k < count; ++k) {
    if (k > 0) out += ',';
    out += FormatDouble(values[k]);
  }
  out += ']';
  return out;
}

std::string JsonNumberArray(const std::vector<double>& values) {
  return JsonNumberArray(values.data(), values.size());
}

}  // namespace

std::string JsonEscaped(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

StatusOr<Request> ParseJsonRequest(const std::string& line) {
  StatusOr<JsonValue> parsed = JsonParser(line).Parse();
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("request must be a json object");
  }
  const JsonObject& object = std::get<JsonObject>(parsed->value);
  StatusOr<std::string> cmd = StringField(object, "cmd");
  if (!cmd.ok()) return cmd.status();

  if (*cmd == "load_graph" || *cmd == "load_states") {
    const Status extra = UnexpectedFields(object, {"cmd", "name", "path"});
    if (!extra.ok()) return extra;
    StatusOr<std::string> name = StringField(object, "name");
    if (!name.ok()) return name.status();
    StatusOr<std::string> path = StringField(object, "path");
    if (!path.ok()) return path.status();
    if (*cmd == "load_graph") {
      if (!ValidSessionName(*name)) {
        return Status::InvalidArgument("invalid graph name '" + *name + "'");
      }
      return Request(LoadGraphRequest{*std::move(name), *std::move(path)});
    }
    return Request(LoadStatesRequest{*std::move(name), *std::move(path)});
  }

  if (*cmd == "append_state") {
    const Status extra = UnexpectedFields(object, {"cmd", "name", "values"});
    if (!extra.ok()) return extra;
    StatusOr<std::string> name = StringField(object, "name");
    if (!name.ok()) return name.status();
    const auto it = object.find("values");
    if (it == object.end()) {
      return Status::InvalidArgument("missing field 'values'");
    }
    const JsonArray* array = std::get_if<JsonArray>(&it->second.value);
    if (array == nullptr) {
      return Status::InvalidArgument(
          "field 'values' must be an array of -1/0/1");
    }
    AppendStateRequest request;
    request.name = *std::move(name);
    request.values.reserve(array->size());
    for (const JsonValue& element : *array) {
      const double* number = std::get_if<double>(&element.value);
      if (number == nullptr ||
          (*number != -1.0 && *number != 0.0 && *number != 1.0)) {
        return Status::InvalidArgument(
            "invalid opinion value '" +
            (number != nullptr ? FormatDouble(*number)
                               : std::string("non-number")) +
            "'");
      }
      request.values.push_back(static_cast<int8_t>(*number));
    }
    return Request(std::move(request));
  }

  if (*cmd == "add_edge" || *cmd == "remove_edge") {
    const Status extra = UnexpectedFields(object, {"cmd", "name", "u", "v"});
    if (!extra.ok()) return extra;
    StatusOr<std::string> name = StringField(object, "name");
    if (!name.ok()) return name.status();
    StatusOr<int32_t> u = IndexField(object, "u");
    if (!u.ok()) return u.status();
    StatusOr<int32_t> v = IndexField(object, "v");
    if (!v.ok()) return v.status();
    if (*cmd == "add_edge") {
      return Request(AddEdgeRequest{*std::move(name), *u, *v});
    }
    return Request(RemoveEdgeRequest{*std::move(name), *u, *v});
  }

  if (*cmd == "subscribe") {
    const Status extra =
        UnexpectedFields(object, {"cmd", "name", "from", "count", "flags"});
    if (!extra.ok()) return extra;
    SubscribeRequest request;
    const Status base = FillComputeBaseFromJson(object, &request);
    if (!base.ok()) return base;
    StatusOr<int64_t> from =
        OptionalInt64Field(object, "from", -1, /*allow_negative=*/true);
    if (!from.ok()) return from.status();
    StatusOr<int64_t> count =
        OptionalInt64Field(object, "count", 0, /*allow_negative=*/false);
    if (!count.ok()) return count.status();
    request.from = *from;
    request.count = *count;
    return Request(std::move(request));
  }

  if (*cmd == "distance") {
    const Status extra =
        UnexpectedFields(object, {"cmd", "name", "i", "j", "flags"});
    if (!extra.ok()) return extra;
    DistanceRequest request;
    const Status base = FillComputeBaseFromJson(object, &request);
    if (!base.ok()) return base;
    StatusOr<int32_t> i = IndexField(object, "i");
    if (!i.ok()) return i.status();
    StatusOr<int32_t> j = IndexField(object, "j");
    if (!j.ok()) return j.status();
    request.i = *i;
    request.j = *j;
    return Request(std::move(request));
  }

  if (*cmd == "series" || *cmd == "matrix" || *cmd == "anomalies") {
    const Status extra = UnexpectedFields(object, {"cmd", "name", "flags"});
    if (!extra.ok()) return extra;
    ComputeRequestBase base;
    const Status filled = FillComputeBaseFromJson(object, &base);
    if (!filled.ok()) return filled;
    if (*cmd == "series") return Request(SeriesRequest{std::move(base)});
    if (*cmd == "matrix") return Request(MatrixRequest{std::move(base)});
    return Request(AnomaliesRequest{std::move(base)});
  }

  if (*cmd == "evict") {
    const Status extra = UnexpectedFields(object, {"cmd", "name"});
    if (!extra.ok()) return extra;
    StatusOr<std::string> name = StringField(object, "name");
    if (!name.ok()) return name.status();
    return Request(EvictRequest{*std::move(name)});
  }

  if (*cmd == "info" || *cmd == "stats" || *cmd == "version" ||
      *cmd == "help" || *cmd == "quit") {
    const Status extra = UnexpectedFields(object, {"cmd"});
    if (!extra.ok()) return extra;
    if (*cmd == "info") return Request(InfoRequest{});
    if (*cmd == "stats") return Request(StatsRequest{});
    if (*cmd == "version") return Request(VersionRequest{});
    if (*cmd == "help") return Request(HelpRequest{});
    return Request(QuitRequest{});
  }

  return Status::InvalidArgument("unknown cmd '" + *cmd + "'");
}

std::string RenderJsonResponse(const Response& response) {
  return std::visit(
      [](const auto& typed) -> std::string {
        using T = std::decay_t<decltype(typed)>;
        std::string out = "{\"ok\":true,";
        if constexpr (std::is_same_v<T, LoadGraphResponse>) {
          AppendField(&out, "cmd", "graph");
          out += ',';
          AppendField(&out, "name", typed.name);
          out += ",\"nodes\":" + std::to_string(typed.nodes);
          out += ",\"edges\":" + std::to_string(typed.edges);
          out += ",\"epoch\":" + std::to_string(typed.epoch);
        } else if constexpr (std::is_same_v<T, LoadStatesResponse>) {
          AppendField(&out, "cmd", "states");
          out += ',';
          AppendField(&out, "name", typed.name);
          out += ",\"count\":" + std::to_string(typed.count);
          out += ",\"users\":" + std::to_string(typed.users);
          out += ",\"epoch\":" + std::to_string(typed.epoch);
        } else if constexpr (std::is_same_v<T, MutateEdgeResponse>) {
          AppendField(&out, "cmd", typed.added ? "add_edge" : "remove_edge");
          out += ',';
          AppendField(&out, "name", typed.name);
          out += ",\"u\":" + std::to_string(typed.u);
          out += ",\"v\":" + std::to_string(typed.v);
          out += ",\"edges\":" + std::to_string(typed.edges);
          out += ",\"sub_epoch\":" + std::to_string(typed.sub_epoch);
          out += ",\"retained\":" + std::to_string(typed.results_retained);
          out += ",\"erased\":" + std::to_string(typed.results_erased);
        } else if constexpr (std::is_same_v<T, DistanceResponse>) {
          AppendField(&out, "cmd", "distance");
          out += ',';
          AppendField(&out, "name", typed.name);
          out += ",\"i\":" + std::to_string(typed.i);
          out += ",\"j\":" + std::to_string(typed.j);
          out += ",\"value\":" + FormatDouble(typed.value);
        } else if constexpr (std::is_same_v<T, SeriesResponse>) {
          AppendField(&out, "cmd", "series");
          out += ',';
          AppendField(&out, "name", typed.name);
          out += ",\"pairs\":[";
          for (size_t k = 0; k < typed.pairs.size(); ++k) {
            if (k > 0) out += ',';
            out += '[' + std::to_string(typed.pairs[k].first) + ',' +
                   std::to_string(typed.pairs[k].second) + ']';
          }
          out += "],\"values\":" + JsonNumberArray(typed.values);
        } else if constexpr (std::is_same_v<T, MatrixResponse>) {
          AppendField(&out, "cmd", "matrix");
          out += ',';
          AppendField(&out, "name", typed.name);
          out += ",\"rows\":" + std::to_string(typed.num_states);
          out += ",\"values\":[";
          for (int32_t r = 0; r < typed.num_states; ++r) {
            if (r > 0) out += ',';
            out += JsonNumberArray(
                typed.values.data() + static_cast<size_t>(r) *
                                          static_cast<size_t>(typed.num_states),
                static_cast<size_t>(typed.num_states));
          }
          out += ']';
        } else if constexpr (std::is_same_v<T, AnomaliesResponse>) {
          AppendField(&out, "cmd", "anomalies");
          out += ',';
          AppendField(&out, "name", typed.name);
          out += ",\"transitions\":[";
          for (size_t k = 0; k < typed.transitions.size(); ++k) {
            if (k > 0) out += ',';
            out += std::to_string(typed.transitions[k]);
          }
          out += "],\"scores\":" + JsonNumberArray(typed.scores);
        } else if constexpr (std::is_same_v<T, InfoResponse>) {
          AppendField(&out, "cmd", "info");
          out += ",\"sessions\":[";
          for (size_t k = 0; k < typed.sessions.size(); ++k) {
            const auto& session = typed.sessions[k];
            if (k > 0) out += ',';
            out += '{';
            AppendField(&out, "name", session.name);
            out += ",\"nodes\":" + std::to_string(session.nodes);
            out += ",\"edges\":" + std::to_string(session.edges);
            out += ",\"graph_epoch\":" + std::to_string(session.graph_epoch);
            out += ",\"states\":" + std::to_string(session.states);
            out +=
                ",\"states_epoch\":" + std::to_string(session.states_epoch);
            out += ",\"sub_epoch\":" +
                   std::to_string(session.graph_sub_epoch);
            out += ",\"first_state\":" + std::to_string(session.first_state);
            out += '}';
          }
          out += "],\"calculators\":{\"size\":" +
                 std::to_string(typed.calc_size) +
                 ",\"capacity\":" + std::to_string(typed.calc_capacity) +
                 ",\"builds\":" + std::to_string(typed.calc_builds) +
                 ",\"hits\":" + std::to_string(typed.calc_hits) + '}';
          out += ",\"results\":{\"size\":" +
                 std::to_string(typed.result_size) +
                 ",\"capacity\":" + std::to_string(typed.result_capacity) +
                 ",\"hits\":" + std::to_string(typed.result_hits) +
                 ",\"misses\":" + std::to_string(typed.result_misses) +
                 ",\"evictions\":" + std::to_string(typed.result_evictions) +
                 '}';
          out += ",\"work\":{\"sssp_runs\":" +
                 std::to_string(typed.sssp_runs) +
                 ",\"transport_solves\":" +
                 std::to_string(typed.transport_solves) +
                 ",\"edge_cost_builds\":" +
                 std::to_string(typed.edge_cost_builds) +
                 ",\"edge_cost_patches\":" +
                 std::to_string(typed.edge_cost_patches) + '}';
          out += ",\"threads\":" + std::to_string(typed.threads);
        } else if constexpr (std::is_same_v<T, StatsResponse>) {
          AppendField(&out, "cmd", "stats");
          out += ",\"metrics\":{";
          for (size_t k = 0; k < typed.metrics.size(); ++k) {
            if (k > 0) out += ',';
            out += '"' + JsonEscaped(typed.metrics[k].name) +
                   "\":" + std::to_string(typed.metrics[k].value);
          }
          out += '}';
        } else if constexpr (std::is_same_v<T, EvictResponse>) {
          AppendField(&out, "cmd", "evict");
          out += ',';
          AppendField(&out, "name", typed.name);
        } else if constexpr (std::is_same_v<T, VersionResponse>) {
          AppendField(&out, "cmd", "version");
          out += ',';
          AppendField(&out, "version", typed.version);
        } else if constexpr (std::is_same_v<T, HelpResponse>) {
          AppendField(&out, "cmd", "help");
          out += ",\"rows\":[";
          for (size_t k = 0; k < typed.rows.size(); ++k) {
            if (k > 0) out += ',';
            out += '"' + JsonEscaped(typed.rows[k]) + '"';
          }
          out += ']';
        } else {
          static_assert(std::is_same_v<T, ByeResponse>);
          AppendField(&out, "cmd", "bye");
        }
        out += '}';
        return out;
      },
      response);
}

std::string RenderJsonError(const Status& status) {
  std::string out = "{\"ok\":false,";
  AppendField(&out, "code", StatusCodeName(status.code()));
  out += ',';
  AppendField(&out, "error", status.message());
  out += '}';
  return out;
}

}  // namespace snd
