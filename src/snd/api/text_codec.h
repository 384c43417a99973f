// The newline-delimited text codec: the original `snd_serve` wire
// protocol, reimplemented as a thin layer over the typed API. Parsing
// turns one request line into a typed Request (malformed input becomes
// a Status naming the offending token, with the exact legacy wording);
// rendering turns a typed Response back into the legacy wire bytes.
// The composition  ParseTextRequest -> Dispatch -> RenderTextResponse
// reproduces the pre-typed protocol byte for byte for every success
// path and every single-fault request — the serve_smoke transcripts are
// pinned by test. Two sanctioned divergences: (1) requests malformed in
// MORE than one way — syntax and flag errors are now detected at parse
// time, before the service sees the request, so they take precedence
// over session-dependent errors (unknown graph, index out of range,
// too few states) that the legacy dispatcher happened to check first
// in some orders; each individual error still renders with its exact
// legacy wording. (2) Out-of-range index messages quote the
// canonicalized integer, so a leading-zero token ("007") is echoed as
// "7" — the request is typed by the time range is known.
//
// Request grammar — one request per line, whitespace-separated tokens;
// blank lines and lines starting with '#' are skipped by the serve
// loop. Flags use the shared vocabulary of service/options_parse.h:
//
//   load_graph <name> <graph.edges>     load or replace a named graph
//   load_states <name> <states.txt>     load/replace the state series
//   append_state <name> <v1> ... <vn>   append one state (-1/0/1 each)
//   distance <name> <i> <j> [flags]     SND between states i and j
//   series <name> [flags]               SND over adjacent states
//   matrix <name> [flags]               full pairwise SND matrix
//   anomalies <name> [flags]            transitions by anomaly score
//   info                                sessions, caches, counters
//   evict <name>                        drop a graph and its artifacts
//   version                             protocol/library version
//   help                                protocol summary
//   quit                                end the session
//
// Response format — first line "ok <header>" or "error <message>".
// Exactly the responses whose header *ends* in "rows <n>" or "count <n>"
// (series, matrix, anomalies, info, help) are followed by that many data
// lines; every other response is a single line, so the stream needs no
// terminators. (A "count" mid-header — `load_states`'s "count 5 users
// 20 epoch 3" — is not a row count; only the final two tokens frame.)
// Values are printed with FormatDouble (%.17g, round-trips doubles
// exactly). Errors render as "error <message>" — the message alone, for
// byte-compatibility; the status *code* travels on the JSON wire
// (json_codec.h) and through the typed API.
#ifndef SND_API_TEXT_CODEC_H_
#define SND_API_TEXT_CODEC_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "snd/api/requests.h"
#include "snd/api/responses.h"
#include "snd/api/status.h"

namespace snd {

// A response rendered for the text wire. `header`/`rows` are the wire
// payload (without the "ok "/"error " prefix); `values` carries the raw
// doubles of numeric responses (ResponseValues order) so in-process
// callers (tests, benches) can assert bitwise equality without parsing
// text.
struct ServiceResponse {
  bool ok = false;
  std::string header;  // Error message when !ok.
  std::vector<std::string> rows;
  std::vector<double> values;
};

// Parses one request line into a typed Request. Malformed requests
// return kInvalidArgument with the legacy token-naming message
// ("unknown command 'x'", "invalid state index 'x'", "unrecognized
// flag '--x'", ...).
StatusOr<Request> ParseTextRequest(const std::string& line);

// Renders a typed response (or an error status) in the legacy wire
// shape.
ServiceResponse RenderTextResponse(const Response& response);
ServiceResponse RenderTextError(const Status& status);

// Serializes a rendered response onto the wire: the "ok "/"error "
// prefixed header line followed by the data rows.
void WriteTextResponse(const ServiceResponse& response, std::ostream& out);
// The same bytes appended to `out`.
void AppendTextResponse(const ServiceResponse& response, std::string* out);

}  // namespace snd

#endif  // SND_API_TEXT_CODEC_H_
