#!/usr/bin/env python3
"""snd_lint: repo-invariant linter for the SND codebase.

Enforces cross-cutting rules that the compiler cannot, emitting findings
in the machine-greppable form

    file:line: rule-id message

and exiting 0 when clean, 1 when there are findings, 2 on usage or
internal errors.  Run from anywhere:

    python3 tools/snd_lint.py --root /path/to/repo
    python3 tools/snd_lint.py --root /path/to/repo --self-test

Rules
-----
raw-thread
    No std::thread / std::jthread construction and no std::async in
    src/, tools/ or bench/.  All parallelism must go through
    snd::ThreadPool (src/snd/util/thread_pool.*).  Two locations are
    exempted: the pool itself, and the serving tier's event loops
    (src/snd/net/event_loop.*), which mint the epoll loop thread and
    its dispatch workers — ThreadPool is ParallelFor-shaped, so
    parking long-lived loop/dispatch threads there would starve nested
    ParallelFor work.  Tests are out of scope (they may spawn client
    threads to exercise the service).

double-format
    No printf-family floating-point conversions (%g/%f/%e/%a) and no
    std::to_string on a double/float in the wire layers (src/snd/api/,
    src/snd/service/, tools/).  Doubles crossing the wire must be
    printed with snd::FormatDouble (src/snd/util/format.h) so values
    round-trip bitwise and the cache-key/text/JSON formats can never
    drift apart.

using-namespace-header
    No `using namespace` at any scope in a header.  Headers are
    included everywhere; a using-directive there pollutes every
    translation unit.

nodiscard-status
    The Status / StatusOr class definitions in src/snd/api/ must carry
    [[nodiscard]], and StatusOr::status() must be [[nodiscard]] — the
    API contract that error returns cannot be silently dropped is
    enforced at the type, and this rule keeps it from regressing.

epoch-bump
    Epoch counters may only be minted or advanced inside the session
    registry (src/snd/service/session.*) or the graph delta overlay
    (src/snd/graph/graph_delta.*): any reference to the global
    `next_epoch_` counter, or ++/+=/fetch_add on the
    graph_epoch/graph_sub_epoch/states_epoch fields, elsewhere is a
    finding.  Cache-key uniqueness relies on every epoch value coming
    from the one monotone counter; a second mint site could alias keys
    across reloads.  Likewise the cache-invalidation entry points
    (EraseMatching / EraseMatchingPrefix / TrimEdgeCostCache) may only
    be driven from src/snd/service/ (or their defining module,
    src/snd/core/snd.*) — targeted invalidation is a service-layer
    decision, not something arbitrary code may trigger.  Copying an
    epoch value into a response struct is data-plane and not flagged.

metric-name
    The observability name vocabulary lives in src/snd/obs/names.h and
    nowhere else: Register(Counter|Gauge|Histogram) and
    AppendEventField in src/ and tools/ must take a names.h constant,
    never a string literal, so no ad-hoc metric name or event field key
    can reach the registry or the JSONL schema.  Inside names.h the
    constants are validated against the naming contract — kMetric*
    values are lowercase dotted identifiers [a-z0-9_]+(\\.[a-z0-9_]+)+
    and kEv* values are single lowercase tokens [a-z0-9_]+.  Bench
    metric literals passed to snd::bench::PrintMetric must follow the
    same dotted grammar (budget-keys then proves budgets.json only
    names metrics a bench emits).  Tests are out of scope (they
    register throwaway names on purpose).

counter-path
    Every instrument comes from MetricsRegistry::Register*, so each
    counted event has one counter that `stats` can see: in src/ outside
    src/snd/obs/, declaring an obs::Counter, obs::Gauge or
    obs::Histogram object (a member, a local, a container element or a
    smart-pointer target) is a finding; pointers and references to
    registered instruments are fine.  Tests are out of scope, as for
    metric-name (the ResultCache unit tests pass their own sink
    counters).

budget-keys
    Every key in bench/budgets.json (the perf-budget file that
    tools/check_perf_budget.py enforces in CI) must correspond to a
    bench binary that exists under bench/ and a metric name that some
    bench actually emits — metric names are recovered statically from
    the PrintMetric/snprintf format strings in bench/*.cc, with %d/%s
    holes treated as wildcards.  A renamed sweep or deleted bench
    therefore fails lint instead of leaving a stale budget that can
    never be checked again.

Waivers
-------
A finding on a specific line can be waived with a trailing comment
naming the rule:

    std::thread([&] { ... });  // snd-lint: allow(raw-thread) -- reason

Waivers are per-line and per-rule; prefer fixing or relocating the code.

Adding a rule
-------------
Add a Rule instance to RULES (id, scope predicate, checker) and a
fixture file under tools/lint_fixtures/ that violates it; --self-test
fails until the new rule catches its fixture, so a rule that silently
never fires cannot land.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Source preprocessing
# --------------------------------------------------------------------------

def _scan(lines, blank_strings):
    """Lines with comments blanked; optionally string contents too.

    One character-level pass with comment/string state carried across
    lines, so `//` inside a literal and literals inside /* */ are both
    handled. Blanked spans become spaces, preserving line numbers.
    """
    out = []
    in_block = False
    for line in lines:
        chars = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            c = line[i]
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                j = i + 1
                while j < n:
                    if line[j] == "\\":
                        j += 2
                    elif line[j] == quote:
                        j += 1
                        break
                    else:
                        j += 1
                if blank_strings:
                    chars.append(quote + "_" + quote)
                else:
                    chars.append(line[i:j])
                i = j
                continue
            chars.append(c)
            i += 1
        out.append("".join(chars))
    return out


def strip_comments_keep_strings(lines):
    return _scan(lines, blank_strings=False)


def code_only(lines):
    """Lines with comments AND string/char literal contents blanked."""
    return _scan(lines, blank_strings=True)


# --------------------------------------------------------------------------
# Findings and waivers
# --------------------------------------------------------------------------

class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self, root):
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: {self.rule} {self.message}"


_WAIVER = re.compile(r"//\s*snd-lint:\s*allow\(([a-z0-9-]+)\)")


def waived(raw_line, rule_id):
    match = _WAIVER.search(raw_line)
    return match is not None and match.group(1) == rule_id


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

# Matches construction — `std::thread(...)`, `std::thread t(...)`,
# brace forms — but not `std::thread::hardware_concurrency()`,
# `std::thread&`, or `std::vector<std::thread>`.
_RAW_THREAD = re.compile(
    r"\bstd::(thread|jthread)\s*(\w+\s*)?[({]|\bstd::async\s*\(")
_FLOAT_SPEC = re.compile(r"%[-+ #0-9.*']*(?:hh|h|ll|l|L)?[gGeEfFaA]\b")
_TO_STRING_FLOAT = re.compile(
    r"\bstd::to_string\s*\(\s*[^()]*\b(?:double|float)\b"
    r"|\bstd::to_string\s*\(\s*[0-9]*\.[0-9]")
_USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")
_EPOCH_COUNTER = re.compile(r"\bnext_epoch_\b")
_EPOCH_ADVANCE = re.compile(
    r"(?:\+\+|--)\s*(?:\w+(?:->|\.))?"
    r"(?:graph_epoch|graph_sub_epoch|states_epoch)\b"
    r"|\b(?:graph_epoch|graph_sub_epoch|states_epoch)\s*"
    r"(?:\+\+|--|\+=|-=|\.fetch_add)")
_CACHE_INVALIDATE = re.compile(
    r"\b(?:EraseMatchingPrefix|EraseMatching|TrimEdgeCostCache)\s*\(")
_STATUS_CLASS = re.compile(r"^\s*class\s+(Status|StatusOr)\b")
_STATUS_ACCESSOR = re.compile(r"\bconst\s+Status&\s+status\s*\(\s*\)\s*const")
_METRIC_NAME_GRAMMAR = re.compile(r"[a-z0-9_]+(?:\.[a-z0-9_]+)+")
_EV_FIELD_GRAMMAR = re.compile(r"[a-z0-9_]+")
_METRIC_REGISTER_LITERAL = re.compile(
    r"\bRegister(?:Counter|Gauge|Histogram)\s*\(\s*\"")
_EV_FIELD_LITERAL = re.compile(r"\bAppendEventField\s*\([^,;]*,\s*\"")
_PRINT_METRIC_LITERAL = re.compile(r"\bPrintMetric\s*\(\s*\"([^\"]*)\"")
# An instrument type not followed by '*', '&' or '::': a declared object
# (`obs::Counter hits_;`) or a template argument that owns one
# (`std::unique_ptr<obs::Gauge>`).
_OWNED_INSTRUMENT = re.compile(
    r"\bobs::(Counter|Gauge|Histogram)\b(?!\s*[*&:])(?=\s*[>,]|\s+\w)")
_OBS_NAMES_CONST = re.compile(r"\bk(Metric|Ev)\w*\s*\[\]\s*=\s*\"([^\"]*)\"")
_OBS_NAMES_REL = os.path.join("src", "snd", "obs", "names.h")


def _in(path, *prefixes):
    return any(path.startswith(p + os.sep) or os.path.dirname(path) == p
               for p in prefixes)


def check_raw_thread(rel, raw, code):
    base = os.path.basename(rel)
    if rel.startswith(os.path.join("src", "snd", "util")) and \
            base.startswith("thread_pool."):
        return  # The sanctioned home of pooled raw threads.
    if rel.startswith(os.path.join("src", "snd", "net")) and \
            base.startswith("event_loop."):
        return  # The serving tier's loop + dispatch threads live here.
    for i, line in enumerate(code, start=1):
        match = _RAW_THREAD.search(line)
        if match is None:
            continue
        # `std::thread::hardware_concurrency()` and declarations like
        # `std::vector<std::thread>` do not match (no '(' after the
        # type), so anything here really constructs a thread or task.
        yield i, ("raw thread/async construction; route parallelism "
                  "through snd::ThreadPool (src/snd/util/thread_pool.h)")


def check_double_format(rel, raw, code):
    # Float specifiers live inside string literals, so scan the
    # comment-stripped (strings kept) text.
    stripped = strip_comments_keep_strings(raw)
    for i, line in enumerate(stripped, start=1):
        if _FLOAT_SPEC.search(line):
            yield i, ("printf float conversion in a wire layer; print "
                      "doubles with snd::FormatDouble "
                      "(src/snd/util/format.h)")
        elif _TO_STRING_FLOAT.search(line):
            yield i, ("std::to_string on a floating value in a wire "
                      "layer; use snd::FormatDouble "
                      "(src/snd/util/format.h)")


def check_using_namespace_header(rel, raw, code):
    for i, line in enumerate(code, start=1):
        if _USING_NAMESPACE.search(line):
            yield i, "`using namespace` in a header pollutes every includer"


def check_nodiscard_status(rel, raw, code):
    for i, line in enumerate(code, start=1):
        if _STATUS_CLASS.search(line) and "[[nodiscard]]" not in line:
            yield i, ("Status/StatusOr class must be declared "
                      "[[nodiscard]] so dropped error returns warn")
        elif _STATUS_ACCESSOR.search(line) and "[[nodiscard]]" not in line:
            yield i, "StatusOr::status() must be [[nodiscard]]"


_EPOCH_MINT_FILES = {
    os.path.join("src", "snd", "service", "session.h"),
    os.path.join("src", "snd", "service", "session.cc"),
    os.path.join("src", "snd", "graph", "graph_delta.h"),
    os.path.join("src", "snd", "graph", "graph_delta.cc"),
}
_INVALIDATE_MODULE_FILES = {
    os.path.join("src", "snd", "core", "snd.h"),
    os.path.join("src", "snd", "core", "snd.cc"),
}


def check_epoch_bump(rel, raw, code):
    epoch_ok = rel in _EPOCH_MINT_FILES
    invalidate_ok = (
        epoch_ok or
        rel.startswith(os.path.join("src", "snd", "service") + os.sep) or
        rel in _INVALIDATE_MODULE_FILES)
    if epoch_ok and invalidate_ok:
        return
    for i, line in enumerate(code, start=1):
        if not epoch_ok and (_EPOCH_COUNTER.search(line) or
                             _EPOCH_ADVANCE.search(line)):
            yield i, ("epoch counter minted/advanced outside the session "
                      "registry; epochs may only move in "
                      "src/snd/service/session.* or the delta overlay "
                      "(src/snd/graph/graph_delta.*)")
        elif not invalidate_ok and _CACHE_INVALIDATE.search(line):
            yield i, ("cache invalidation outside the service layer; "
                      "EraseMatching*/TrimEdgeCostCache may only be driven "
                      "from src/snd/service/")


def check_metric_name(rel, raw, code):
    # Names live inside string literals, so scan comment-stripped text
    # with literals kept.
    stripped = strip_comments_keep_strings(raw)
    if rel == _OBS_NAMES_REL:
        # The vocabulary itself: validate every constant against the
        # naming contract declared at the top of names.h.
        for i, line in enumerate(stripped, start=1):
            match = _OBS_NAMES_CONST.search(line)
            if match is None:
                continue
            kind, value = match.groups()
            if kind == "Metric" and \
                    not _METRIC_NAME_GRAMMAR.fullmatch(value):
                yield i, (f"metric name '{value}' violates the grammar "
                          "[a-z0-9_]+(.[a-z0-9_]+)+ declared in names.h")
            elif kind == "Ev" and not _EV_FIELD_GRAMMAR.fullmatch(value):
                yield i, (f"event field key '{value}' violates the "
                          "grammar [a-z0-9_]+ declared in names.h")
        return
    for i, line in enumerate(stripped, start=1):
        if _METRIC_REGISTER_LITERAL.search(line):
            yield i, ("string-literal metric name at a registration "
                      "site; register through a src/snd/obs/names.h "
                      "constant so the vocabulary stays in one place")
        elif _EV_FIELD_LITERAL.search(line):
            yield i, ("string-literal event field key; emit through a "
                      "src/snd/obs/names.h kEv* constant so the JSONL "
                      "schema stays in one place")
        else:
            match = _PRINT_METRIC_LITERAL.search(line)
            if match is not None and \
                    not _METRIC_NAME_GRAMMAR.fullmatch(match.group(1)):
                yield i, (f"BENCH_METRIC name '{match.group(1)}' is not "
                          "a lowercase dotted identifier "
                          "[a-z0-9_]+(.[a-z0-9_]+)+")


def check_counter_path(rel, raw, code):
    for i, line in enumerate(code, start=1):
        match = _OWNED_INSTRUMENT.search(line)
        if match is not None:
            yield i, (f"obs::{match.group(1)} object outside src/snd/obs/; "
                      "take instruments from MetricsRegistry::Register* so "
                      "every count has one counter the registry reports")


# --------------------------------------------------------------------------
# budget-keys: bench/budgets.json must reference real benches/metrics
# --------------------------------------------------------------------------

_BUDGETS_REL = os.path.join("bench", "budgets.json")
# Calls that carry metric-name format strings; spans end at ';' so
# multi-line snprintf calls are covered.
_METRIC_CALL = re.compile(r"(?:PrintMetric|snprintf)\s*\(([^;]*?)\)\s*;",
                          re.DOTALL)
# A quoted metric name / format: dot-separated lowercase tokens with
# optional %d / %s holes.
_METRIC_STRING = re.compile(r'"([a-z0-9_%-]+(?:\.[a-z0-9_%-]+)+)"')


def _bench_metric_patterns(root):
    """(compiled patterns, bench binary names) from bench/*.cc sources."""
    patterns, bench_names = [], set()
    bench_dir = os.path.join(root, "bench")
    if not os.path.isdir(bench_dir):
        return patterns, bench_names
    for name in sorted(os.listdir(bench_dir)):
        if not name.endswith(".cc"):
            continue
        bench_names.add(name[:-3])
        try:
            with open(os.path.join(bench_dir, name), encoding="utf-8") as f:
                text = f.read()
        except OSError:
            continue
        for call in _METRIC_CALL.finditer(text):
            for fmt in _METRIC_STRING.findall(call.group(1)):
                escaped = re.escape(fmt)
                escaped = escaped.replace("%d", "[0-9]+")
                escaped = escaped.replace("%s", "[a-z0-9_-]+")
                patterns.append(re.compile(escaped))
    return patterns, bench_names


def check_budget_keys(root):
    """Findings for budget entries no bench source can ever emit."""
    path = os.path.join(root, _BUDGETS_REL)
    if not os.path.isfile(path):
        return []
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        budgets = json.loads(raw)
    except (OSError, json.JSONDecodeError) as err:
        return [Finding(path, 1, "budget-keys",
                        f"cannot parse {_BUDGETS_REL}: {err}")]
    lines = raw.splitlines()

    def line_of(key):
        needle = f'"{key}"'
        for i, line in enumerate(lines, start=1):
            if needle in line:
                return i
        return 1

    findings = []
    patterns, bench_names = _bench_metric_patterns(root)
    for bench_name, metrics in budgets.get("budgets", {}).items():
        if bench_name not in bench_names:
            findings.append(Finding(
                path, line_of(bench_name), "budget-keys",
                f"budgeted bench '{bench_name}' has no bench/"
                f"{bench_name}.cc; stale budget entry"))
            continue
        for metric in metrics:
            if not any(p.fullmatch(metric) for p in patterns):
                findings.append(Finding(
                    path, line_of(metric), "budget-keys",
                    f"no bench emits metric '{metric}' (checked "
                    f"PrintMetric/snprintf format strings in bench/*.cc); "
                    f"stale budget key"))
    return findings


class Rule:
    def __init__(self, rule_id, applies, check):
        self.rule_id = rule_id
        self.applies = applies  # rel-path predicate
        self.check = check      # (rel, raw_lines, code_lines) -> (line, msg)


_CPP_EXT = (".cc", ".h")
_WIRE_DIRS = (os.path.join("src", "snd", "api"),
              os.path.join("src", "snd", "service"),
              "tools")

RULES = [
    Rule("raw-thread",
         lambda rel: rel.endswith(_CPP_EXT) and
         _in(rel, "src", "tools", "bench"),
         check_raw_thread),
    Rule("double-format",
         lambda rel: rel.endswith(_CPP_EXT) and _in(rel, *_WIRE_DIRS),
         check_double_format),
    Rule("using-namespace-header",
         lambda rel: rel.endswith(".h"),
         check_using_namespace_header),
    Rule("nodiscard-status",
         lambda rel: rel.endswith(".h") and
         _in(rel, os.path.join("src", "snd", "api")),
         check_nodiscard_status),
    Rule("epoch-bump",
         lambda rel: rel.endswith(_CPP_EXT) and
         _in(rel, "src", "tools", "bench"),
         check_epoch_bump),
    Rule("metric-name",
         lambda rel: rel.endswith(_CPP_EXT) and
         _in(rel, "src", "tools", "bench"),
         check_metric_name),
    Rule("counter-path",
         lambda rel: rel.endswith(_CPP_EXT) and _in(rel, "src") and
         not _in(rel, os.path.join("src", "snd", "obs")),
         check_counter_path),
]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

_SKIP_DIRS = {"build", ".git", "lint_fixtures", "third_party", "data"}


def source_files(root):
    for top in ("src", "tools", "bench", "tests", "examples"):
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(_CPP_EXT):
                    yield os.path.join(dirpath, name)


def lint_tree(root, files=None):
    findings = []
    # budget-keys is cross-file (budgets.json against every bench
    # source), so it runs once per tree rather than per file.
    if files is None or any(
            os.path.relpath(p, root) == _BUDGETS_REL for p in files):
        findings.extend(check_budget_keys(root))
    for path in (files if files is not None else source_files(root)):
        rel = os.path.relpath(path, root)
        if rel == _BUDGETS_REL:
            continue  # Handled by check_budget_keys above.
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read().splitlines()
        except OSError as err:
            print(f"snd_lint: cannot read {rel}: {err}", file=sys.stderr)
            return None
        code = code_only(raw)
        for rule in RULES:
            if not rule.applies(rel):
                continue
            for line_no, message in rule.check(rel, raw, code):
                if waived(raw[line_no - 1], rule.rule_id):
                    continue
                findings.append(Finding(path, line_no, rule.rule_id, message))
    return findings


# --------------------------------------------------------------------------
# Self-test: every rule must catch its seeded fixture violation
# --------------------------------------------------------------------------

# rule-id -> fixture file (relative to the fixture root) that must
# trigger it.  Files in CLEAN_FIXTURES must trigger nothing: they prove
# the scope exemptions and the waiver syntax actually suppress.
EXPECTED_VIOLATIONS = {
    "raw-thread": os.path.join("src", "snd", "emd", "bad_thread.cc"),
    "double-format": os.path.join("src", "snd", "api", "bad_format.cc"),
    "using-namespace-header": os.path.join("src", "snd", "core",
                                           "bad_header.h"),
    "nodiscard-status": os.path.join("src", "snd", "api", "bad_status.h"),
    "epoch-bump": os.path.join("src", "snd", "core", "bad_epoch.cc"),
    "metric-name": os.path.join("src", "snd", "obs", "bad_metric.cc"),
    "counter-path": os.path.join("src", "snd", "service", "bad_counter.cc"),
    "budget-keys": os.path.join("bench", "budgets.json"),
}
CLEAN_FIXTURES = [
    os.path.join("src", "snd", "util", "thread_pool.cc"),  # scope exemption
    os.path.join("src", "snd", "net", "event_loop.cc"),    # scope exemption
    os.path.join("tools", "waived_thread.cc"),             # waiver comment
    os.path.join("src", "snd", "obs", "registry_owner.cc"),  # scope exemption
]


def self_test(repo_root):
    fixture_root = os.path.join(repo_root, "tools", "lint_fixtures")
    if not os.path.isdir(fixture_root):
        print(f"snd_lint: missing fixture dir {fixture_root}",
              file=sys.stderr)
        return 2
    failures = []

    for rule_id, rel in EXPECTED_VIOLATIONS.items():
        path = os.path.join(fixture_root, rel)
        findings = lint_tree(fixture_root, files=[path])
        if findings is None:
            return 2
        hits = [f for f in findings if f.rule == rule_id]
        if not hits:
            failures.append(f"rule {rule_id} did not fire on fixture {rel}")
        for f in findings:
            print(f.render(fixture_root) + "  [expected]")

    for rel in CLEAN_FIXTURES:
        path = os.path.join(fixture_root, rel)
        findings = lint_tree(fixture_root, files=[path])
        if findings is None:
            return 2
        for f in findings:
            failures.append(
                f"clean fixture {rel} produced: {f.render(fixture_root)}")

    if failures:
        for failure in failures:
            print(f"snd_lint: self-test FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"snd_lint: self-test OK ({len(EXPECTED_VIOLATIONS)} rules fire, "
          f"{len(CLEAN_FIXTURES)} clean fixtures stay clean)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule catches its fixture")
    parser.add_argument("files", nargs="*",
                        help="lint only these files (default: whole tree)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"snd_lint: no such directory: {root}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)

    files = [os.path.abspath(f) for f in args.files] or None
    findings = lint_tree(root, files=files)
    if findings is None:
        return 2
    for finding in findings:
        print(finding.render(root))
    if findings:
        print(f"snd_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
