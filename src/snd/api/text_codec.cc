#include "snd/api/text_codec.h"

#include <cctype>
#include <cstdint>
#include <ostream>
#include <utility>
#include <variant>

#include "snd/service/options_parse.h"
#include "snd/service/session.h"  // ValidSessionName.
#include "snd/util/format.h"

namespace snd {
namespace {

// Splits on the characters `std::istream >> std::string` skips in the
// "C" locale.
std::vector<std::string> Tokenize(const std::string& line) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  std::vector<std::string> tokens;
  size_t at = 0;
  while (at < line.size()) {
    while (at < line.size() && is_space(line[at])) ++at;
    const size_t start = at;
    while (at < line.size() && !is_space(line[at])) ++at;
    if (at > start) tokens.emplace_back(line, start, at - start);
  }
  return tokens;
}

bool ParseIndex(const std::string& token, int32_t* index) {
  if (token.empty()) return false;
  int32_t value = 0;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    if (value > (INT32_MAX - (c - '0')) / 10) return false;
    value = value * 10 + (c - '0');
  }
  *index = value;
  return true;
}

// Signed 64-bit for subscribe's --from/--count values (--from=-1 is the
// documented "next future transition").
bool ParseInt64Token(const std::string& token, int64_t* value) {
  size_t k = 0;
  bool negative = false;
  if (!token.empty() && token[0] == '-') {
    negative = true;
    k = 1;
  }
  if (k == token.size()) return false;
  int64_t parsed = 0;
  for (; k < token.size(); ++k) {
    const char c = token[k];
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    if (parsed > (INT64_MAX - (c - '0')) / 10) return false;
    parsed = parsed * 10 + (c - '0');
  }
  *value = negative ? -parsed : parsed;
  return true;
}

// Trailing-flag block shared by the four compute commands: every token
// from `first` on must look like a flag and parse under the shared
// vocabulary. Precedence note (see the header): parse-time errors —
// token counts, index syntax, stray tokens, flag values — now precede
// session-dependent errors ("unknown graph", out-of-range indices), so
// a request malformed in both ways reports the parse error; each error
// alone is byte-identical to the legacy protocol.
Status FillComputeBase(const std::vector<std::string>& tokens, size_t first,
                       ComputeRequestBase* base) {
  base->name = tokens[1];
  std::vector<std::string> flags;
  for (size_t k = first; k < tokens.size(); ++k) {
    if (!LooksLikeSndFlag(tokens[k])) {
      return Status::InvalidArgument("unexpected token '" + tokens[k] + "'");
    }
    flags.push_back(tokens[k]);
  }
  StatusOr<ParsedSndFlags> parsed = ParseSndFlags(flags);
  if (!parsed.ok()) return parsed.status();
  base->options = parsed->options;
  base->threads = parsed->threads;
  return Status::Ok();
}

// The zero-argument commands reject trailing tokens by naming the first
// stray one, exactly like the legacy dispatcher.
Status ExpectNoExtraTokens(const std::vector<std::string>& tokens) {
  if (tokens.size() > 1) {
    return Status::InvalidArgument("unexpected token '" + tokens[1] + "'");
  }
  return Status::Ok();
}

std::string JoinedValueRow(const double* values, int32_t count) {
  std::string row;
  for (int32_t c = 0; c < count; ++c) {
    if (c > 0) row += ' ';
    row += FormatDouble(values[c]);
  }
  return row;
}

ServiceResponse OkResponse(std::string header) {
  ServiceResponse rendered;
  rendered.ok = true;
  rendered.header = std::move(header);
  return rendered;
}

}  // namespace

StatusOr<Request> ParseTextRequest(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Status::InvalidArgument("empty request");
  const std::string& command = tokens[0];

  if (command == "load_graph" || command == "load_states") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument(command + ": missing arguments");
    }
    if (tokens.size() > 3) {
      return Status::InvalidArgument("unexpected token '" + tokens[3] + "'");
    }
    if (command == "load_graph") {
      if (!ValidSessionName(tokens[1])) {
        return Status::InvalidArgument("invalid graph name '" + tokens[1] +
                                       "'");
      }
      return Request(LoadGraphRequest{tokens[1], tokens[2]});
    }
    return Request(LoadStatesRequest{tokens[1], tokens[2]});
  }

  if (command == "append_state") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("append_state: missing arguments");
    }
    AppendStateRequest request;
    request.name = tokens[1];
    request.values.reserve(tokens.size() - 2);
    for (size_t k = 2; k < tokens.size(); ++k) {
      const std::string& token = tokens[k];
      if (token == "-1") {
        request.values.push_back(-1);
      } else if (token == "0") {
        request.values.push_back(0);
      } else if (token == "1") {
        request.values.push_back(1);
      } else {
        return Status::InvalidArgument("invalid opinion value '" + token +
                                       "'");
      }
    }
    return Request(std::move(request));
  }

  if (command == "add_edge" || command == "remove_edge") {
    if (tokens.size() < 4) {
      return Status::InvalidArgument(command + ": missing arguments");
    }
    if (tokens.size() > 4) {
      return Status::InvalidArgument("unexpected token '" + tokens[4] + "'");
    }
    int32_t u = 0;
    int32_t v = 0;
    if (!ParseIndex(tokens[2], &u)) {
      return Status::InvalidArgument("invalid node index '" + tokens[2] +
                                     "'");
    }
    if (!ParseIndex(tokens[3], &v)) {
      return Status::InvalidArgument("invalid node index '" + tokens[3] +
                                     "'");
    }
    if (command == "add_edge") {
      return Request(AddEdgeRequest{tokens[1], u, v});
    }
    return Request(RemoveEdgeRequest{tokens[1], u, v});
  }

  if (command == "subscribe") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("subscribe: missing arguments");
    }
    SubscribeRequest request;
    request.name = tokens[1];
    std::vector<std::string> flags;
    for (size_t k = 2; k < tokens.size(); ++k) {
      const std::string& token = tokens[k];
      // --from / --count are subscribe framing, not SND options; they
      // must not reach the shared flag parser (or the options
      // signature).
      if (token.rfind("--from=", 0) == 0) {
        if (!ParseInt64Token(token.substr(7), &request.from)) {
          return Status::InvalidArgument("invalid --from value '" +
                                         token.substr(7) + "'");
        }
      } else if (token.rfind("--count=", 0) == 0) {
        int64_t count = 0;
        if (!ParseInt64Token(token.substr(8), &count) || count < 0) {
          return Status::InvalidArgument("invalid --count value '" +
                                         token.substr(8) + "'");
        }
        request.count = count;
      } else if (LooksLikeSndFlag(token)) {
        flags.push_back(token);
      } else {
        return Status::InvalidArgument("unexpected token '" + token + "'");
      }
    }
    StatusOr<ParsedSndFlags> parsed = ParseSndFlags(flags);
    if (!parsed.ok()) return parsed.status();
    request.options = parsed->options;
    request.threads = parsed->threads;
    return Request(std::move(request));
  }

  if (command == "distance") {
    if (tokens.size() < 4) {
      return Status::InvalidArgument("distance: missing arguments");
    }
    DistanceRequest request;
    for (size_t k = 2; k < 4; ++k) {
      int32_t* index = (k == 2) ? &request.i : &request.j;
      if (!ParseIndex(tokens[k], index)) {
        return Status::InvalidArgument("invalid state index '" + tokens[k] +
                                       "'");
      }
    }
    const Status flags = FillComputeBase(tokens, 4, &request);
    if (!flags.ok()) return flags;
    return Request(std::move(request));
  }

  if (command == "series" || command == "matrix" || command == "anomalies") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument(command + ": missing arguments");
    }
    ComputeRequestBase base;
    const Status flags = FillComputeBase(tokens, 2, &base);
    if (!flags.ok()) return flags;
    if (command == "series") return Request(SeriesRequest{std::move(base)});
    if (command == "matrix") return Request(MatrixRequest{std::move(base)});
    return Request(AnomaliesRequest{std::move(base)});
  }

  if (command == "evict") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("evict: missing arguments");
    }
    if (tokens.size() > 2) {
      return Status::InvalidArgument("unexpected token '" + tokens[2] + "'");
    }
    return Request(EvictRequest{tokens[1]});
  }

  if (command == "info") {
    const Status extra = ExpectNoExtraTokens(tokens);
    if (!extra.ok()) return extra;
    return Request(InfoRequest{});
  }
  if (command == "stats") {
    const Status extra = ExpectNoExtraTokens(tokens);
    if (!extra.ok()) return extra;
    return Request(StatsRequest{});
  }
  if (command == "version") {
    const Status extra = ExpectNoExtraTokens(tokens);
    if (!extra.ok()) return extra;
    return Request(VersionRequest{});
  }
  if (command == "help") {
    const Status extra = ExpectNoExtraTokens(tokens);
    if (!extra.ok()) return extra;
    return Request(HelpRequest{});
  }
  if (command == "quit") {
    const Status extra = ExpectNoExtraTokens(tokens);
    if (!extra.ok()) return extra;
    return Request(QuitRequest{});
  }

  return Status::InvalidArgument("unknown command '" + command + "'");
}

ServiceResponse RenderTextResponse(const Response& response) {
  ServiceResponse rendered = std::visit(
      [](const auto& typed) -> ServiceResponse {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, LoadGraphResponse>) {
          return OkResponse("graph " + typed.name + " nodes " +
                            std::to_string(typed.nodes) + " edges " +
                            std::to_string(typed.edges) + " epoch " +
                            std::to_string(typed.epoch));
        } else if constexpr (std::is_same_v<T, LoadStatesResponse>) {
          return OkResponse("states " + typed.name + " count " +
                            std::to_string(typed.count) + " users " +
                            std::to_string(typed.users) + " epoch " +
                            std::to_string(typed.epoch));
        } else if constexpr (std::is_same_v<T, MutateEdgeResponse>) {
          return OkResponse(
              std::string(typed.added ? "add_edge " : "remove_edge ") +
              typed.name + " " + std::to_string(typed.u) + " " +
              std::to_string(typed.v) + " edges " +
              std::to_string(typed.edges) + " sub_epoch " +
              std::to_string(typed.sub_epoch) + " retained " +
              std::to_string(typed.results_retained) + " erased " +
              std::to_string(typed.results_erased));
        } else if constexpr (std::is_same_v<T, DistanceResponse>) {
          return OkResponse("distance " + typed.name + " " +
                            std::to_string(typed.i) + " " +
                            std::to_string(typed.j) + " " +
                            FormatDouble(typed.value));
        } else if constexpr (std::is_same_v<T, SeriesResponse>) {
          ServiceResponse rendered = OkResponse(
              "series " + typed.name + " count " +
              std::to_string(typed.pairs.size()));
          for (size_t k = 0; k < typed.pairs.size(); ++k) {
            rendered.rows.push_back(std::to_string(typed.pairs[k].first) +
                                    " " +
                                    std::to_string(typed.pairs[k].second) +
                                    " " + FormatDouble(typed.values[k]));
          }
          return rendered;
        } else if constexpr (std::is_same_v<T, MatrixResponse>) {
          ServiceResponse rendered = OkResponse(
              "matrix " + typed.name + " rows " +
              std::to_string(typed.num_states));
          for (int32_t r = 0; r < typed.num_states; ++r) {
            rendered.rows.push_back(JoinedValueRow(
                typed.values.data() +
                    static_cast<size_t>(r) * typed.num_states,
                typed.num_states));
          }
          return rendered;
        } else if constexpr (std::is_same_v<T, AnomaliesResponse>) {
          ServiceResponse rendered = OkResponse(
              "anomalies " + typed.name + " count " +
              std::to_string(typed.scores.size()));
          for (size_t r = 0; r < typed.scores.size(); ++r) {
            rendered.rows.push_back(std::to_string(r + 1) + " " +
                                    std::to_string(typed.transitions[r]) +
                                    " " + FormatDouble(typed.scores[r]));
          }
          return rendered;
        } else if constexpr (std::is_same_v<T, InfoResponse>) {
          ServiceResponse rendered;
          rendered.ok = true;
          for (const auto& session : typed.sessions) {
            // sub_epoch/first_state append AFTER the legacy fields:
            // scrapers key on leading prefixes.
            rendered.rows.push_back(
                "graph " + session.name + " nodes " +
                std::to_string(session.nodes) + " edges " +
                std::to_string(session.edges) + " graph_epoch " +
                std::to_string(session.graph_epoch) + " states " +
                std::to_string(session.states) + " states_epoch " +
                std::to_string(session.states_epoch) + " sub_epoch " +
                std::to_string(session.graph_sub_epoch) + " first_state " +
                std::to_string(session.first_state));
          }
          rendered.rows.push_back(
              "calculators size " + std::to_string(typed.calc_size) +
              " capacity " + std::to_string(typed.calc_capacity) +
              " builds " + std::to_string(typed.calc_builds) + " hits " +
              std::to_string(typed.calc_hits));
          rendered.rows.push_back(
              "results size " + std::to_string(typed.result_size) +
              " capacity " + std::to_string(typed.result_capacity) +
              " hits " + std::to_string(typed.result_hits) + " misses " +
              std::to_string(typed.result_misses) + " evictions " +
              std::to_string(typed.result_evictions));
          rendered.rows.push_back(
              "work sssp_runs " + std::to_string(typed.sssp_runs) +
              " transport_solves " +
              std::to_string(typed.transport_solves) +
              " edge_cost_builds " +
              std::to_string(typed.edge_cost_builds) +
              " edge_cost_patches " +
              std::to_string(typed.edge_cost_patches));
          rendered.rows.push_back("threads " +
                                  std::to_string(typed.threads));
          rendered.header =
              "info rows " + std::to_string(rendered.rows.size());
          return rendered;
        } else if constexpr (std::is_same_v<T, StatsResponse>) {
          ServiceResponse rendered =
              OkResponse("stats rows " + std::to_string(typed.metrics.size()));
          for (const auto& row : typed.metrics) {
            rendered.rows.push_back(row.name + " " +
                                    std::to_string(row.value));
          }
          return rendered;
        } else if constexpr (std::is_same_v<T, EvictResponse>) {
          return OkResponse("evict " + typed.name);
        } else if constexpr (std::is_same_v<T, VersionResponse>) {
          return OkResponse("version " + typed.version);
        } else if constexpr (std::is_same_v<T, HelpResponse>) {
          ServiceResponse rendered;
          rendered.ok = true;
          rendered.rows = typed.rows;
          rendered.header =
              "help rows " + std::to_string(rendered.rows.size());
          return rendered;
        } else {
          static_assert(std::is_same_v<T, ByeResponse>);
          return OkResponse("bye");
        }
      },
      response);
  rendered.values = ResponseValues(response);
  return rendered;
}

ServiceResponse RenderTextError(const Status& status) {
  ServiceResponse rendered;
  rendered.ok = false;
  // Message only: the legacy wire shape. The code is implied by the
  // message text here and explicit on the JSON wire.
  rendered.header = status.message();
  return rendered;
}

void WriteTextResponse(const ServiceResponse& response, std::ostream& out) {
  std::string bytes;
  AppendTextResponse(response, &bytes);
  out << bytes;
}

void AppendTextResponse(const ServiceResponse& response, std::string* out) {
  size_t size = response.header.size() + 7;
  for (const std::string& row : response.rows) size += row.size() + 1;
  out->reserve(out->size() + size);
  out->append(response.ok ? "ok " : "error ");
  out->append(response.header);
  out->push_back('\n');
  for (const std::string& row : response.rows) {
    out->append(row);
    out->push_back('\n');
  }
}

}  // namespace snd
