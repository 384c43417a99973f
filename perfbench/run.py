#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of the SND library
and the snd_serve binary.

usage: python3 perfbench/run.py --workload {fig12_cold,serve_hot,serve_churn}
                                --seed N --seconds S --trace {0,1}

Run from the repository root. The first run builds the library, snd_serve
and perfbench_harness into .bench_build/ (a CMake Release build of
perfbench/CMakeLists.txt); later runs reuse it. Every input is generated
from --seed into .bench_build/runs/. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The lines
before it are a human-readable report (every metric with its unit and
sample count). Workload design, metric definitions, latency limits,
golden values and the recorded baseline are in perfbench/spec.json and
perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench_harness")
SERVE = os.path.join(BUILD, "snd", "tools", "snd_serve")
NPROC = os.cpu_count() or 1
# Server set-up is repeated this many times per run and its median
# reported (perfbench_harness repeats the fig12_cold set-up itself).
SETUP_REPEATS = {"serve_hot": 3, "serve_churn": 7}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("run from the repository root: CMakeLists.txt and "
                         "src/ not found in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                  "perfbench_harness", "snd_serve"])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                raise BenchError("build failed: %s (see %s)" %
                                 (" ".join(step), build_log))


def harness(*args, timeout=170):
    done = subprocess.run([HARNESS] + [str(a) for a in args],
                          stdout=subprocess.PIPE, timeout=timeout, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError("perfbench_harness %s exited %d" %
                         (args[0], done.returncode))
    return json.loads(done.stdout.decode()) if done.stdout.strip() else None


def frac(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def close_enough(got, want, rel):
    return abs(got - want) <= rel * max(abs(want), 1e-300)


# ------------------------------------------------------------- serving

class Client:
    """A blocking control connection to snd_serve (text or JSON codec)."""

    def __init__(self, port, json_codec):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")
        self.json = json_codec

    def call(self, request):
        if self.json:
            self.sock.sendall((json.dumps(request) + "\n").encode())
            reply = json.loads(self.reader.readline())
            if not reply.get("ok"):
                raise BenchError("server error for %s: %s" %
                                 (request.get("cmd"), reply))
            return reply
        self.sock.sendall((request + "\n").encode())
        header = self.reader.readline().decode().rstrip("\n")
        if not header.startswith("ok "):
            raise BenchError("server error for '%s': %s" % (request, header))
        words = header.split()
        rows = []
        if words[-2] in ("count", "rows"):
            rows = [self.reader.readline().decode().rstrip("\n")
                    for _ in range(int(words[-1]))]
        return header, rows

    def stats(self):
        if self.json:
            return dict(self.call({"cmd": "stats"})["metrics"])
        _, rows = self.call("stats")
        return {name: float(value)
                for name, value in (row.split() for row in rows)}

    def close(self):
        self.reader.close()
        self.sock.close()


class Server:
    """One snd_serve --listen=0 child; always stopped and reaped."""

    def __init__(self, flags):
        self.proc = subprocess.Popen([SERVE, "--listen=0"] + flags,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, cwd=ROOT)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening "):
            self.stop()
            raise BenchError("snd_serve did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def status_mb(self, field):
        """A kB field of /proc/<pid>/status (VmRSS, VmHWM), in MB."""
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError(field + " not found")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def set_up_server(workload, inputs, events_path):
    """Spawn, load and warm; returns (server, client, seconds, warm)."""
    churn = workload == "serve_churn"
    flags = ["--format=json", "--retain=32"] if churn else []
    if events_path:
        flags.append("--log-events=" + events_path)
    start = time.perf_counter()
    server = Server(flags)
    try:
        client = Client(server.port, churn)
        graph = os.path.join(inputs, "graph.edges")
        states = os.path.join(inputs, "states.txt")
        if churn:
            client.call({"cmd": "load_graph", "name": "g", "path": graph})
            client.call({"cmd": "load_states", "name": "g", "path": states})
            warm = client.call({"cmd": "series", "name": "g"})["values"]
        else:
            client.call("load_graph g " + graph)
            client.call("load_states g " + states)
            _, warm = client.call("matrix g")
            warm = [row.split() for row in warm]
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - start, warm


def write_expected(inputs, matrix):
    """The exact replies serve_hot expects, from the warm-up matrix."""
    n = len(matrix)
    lines = ["ok distance g %d %d %s" % (i, j, matrix[i][j])
             for i in range(n) for j in range(i + 1, n)]
    lines.append("ok series g count %d" % (n - 1))
    lines += ["%d %d %s" % (t, t + 1, matrix[t][t + 1]) for t in range(n - 1)]
    with open(os.path.join(inputs, "expected.txt"), "w") as out:
        out.write("\n".join(lines) + "\n")


def churn_rows(inputs):
    """Every state row of the churn series (preloaded, then appended), so
    that a row's list index is its global state index."""
    rows = []
    for series_name in ("states.txt", "stream.txt"):
        with open(os.path.join(inputs, series_name)) as series:
            rows += series.read().splitlines()[1:]
    return rows


def states_file(inputs, name, first, last):
    """States first..last (global indices) as a states file in `inputs`."""
    window = churn_rows(inputs)[first:last + 1]
    path = os.path.join(inputs, name)
    with open(path, "w") as out:
        out.write("# states %d users %d\n" % (len(window),
                                             len(window[0].split())))
        out.write("\n".join(window) + "\n")
    return path


def graph_with(inputs, name, edges):
    """graph.edges plus `edges`, as an edge list in `inputs`."""
    path = os.path.join(inputs, name)
    with open(os.path.join(inputs, "graph.edges")) as graph, \
            open(path, "w") as out:
        out.write(graph.read())
        out.write("".join("%d %d\n" % edge for edge in edges))
    return path


def probe_edges(inputs, latest):
    """Edges that change SND values of the retained window: for each
    opinion, both directions between a user who took it up and a user who
    gave it up in the newest transition, not yet linked either way."""
    with open(os.path.join(inputs, "graph.edges")) as graph:
        linked = {tuple(map(int, line.split())) for line in graph
                  if not line.startswith("#")}
    rows = churn_rows(inputs)
    before, after = (list(map(int, rows[k].split()))
                     for k in (latest - 1, latest))
    edges = []
    for opinion in (1, -1):
        gained = [u for u, (a, b) in enumerate(zip(before, after))
                  if a != opinion and b == opinion]
        lost = [u for u, (a, b) in enumerate(zip(before, after))
                if a == opinion and b != opinion]
        pair = next(((u, v) for u in gained for v in lost
                     if (u, v) not in linked and (v, u) not in linked), None)
        if pair:
            edges += [pair, pair[::-1]]
    return edges


def differ(fresh, live):
    """Mismatches between two lists of answers, a length difference
    counting as one."""
    return (len(fresh) != len(live)) + sum(a != b
                                           for a, b in zip(fresh, live))


# Scores of each graph (without and with the mutation edge) compared with
# a fresh session after a serve_churn window.
SCORE_SAMPLES = 8


def verify_churn(inputs, client, load, retain=32):
    """Each answer below against a freshly loaded session on its graph and
    states: the live session after the window; the re-scoring series after
    the last add_edge; a sample of the in-window scores on either graph;
    and, as an invalidation probe, the live session once probe_edges are
    added to it. The window's own periphery edge leaves every SND value
    as it was, so only the probe shows results that an edge change should
    have invalidated and did not. Returns the mismatch count."""
    with open(os.path.join(inputs, "mutation.txt")) as mutation:
        edge = tuple(map(int, mutation.read().split()))
    graphs = [os.path.join(inputs, "graph.edges"),
              graph_with(inputs, "added.edges", [edge])]

    def fresh(name, graph, states):
        client.call({"cmd": "load_graph", "name": name, "path": graph})
        client.call({"cmd": "load_states", "name": name, "path": states})

    def series(name):
        return client.call({"cmd": "series", "name": name})["values"]

    latest = load["latest"]
    final = states_file(inputs, "final.txt", latest - retain + 1, latest)
    fresh("f", graphs[0], final)
    live = series("g")
    mismatches = differ(series("f"), live)
    added = load["added"]
    if added:
        at = added["latest"]
        fresh("a", graphs[1], states_file(inputs, "added.txt",
                                          at - retain + 1, at))
        mismatches += differ(series("a"), added["reply"]["values"])
    states = states_file(inputs, "all.txt", 0, latest)
    for present, graph in enumerate(graphs):
        scores = [s for s in load["scores"] if s[1] == bool(present)]
        step = max(1, len(scores) // SCORE_SAMPLES)
        name = "s%d" % present
        fresh(name, graph, states)
        for index, _, value in scores[::step][:SCORE_SAMPLES]:
            reply = client.call({"cmd": "distance", "name": name,
                                 "i": index - 1, "j": index})
            mismatches += reply["value"] != value
    probe = probe_edges(inputs, latest)
    for u, v in probe:
        client.call({"cmd": "add_edge", "name": "g", "u": u, "v": v})
    fresh("p", graph_with(inputs, "probe.edges", probe), final)
    probed = series("g")
    mismatches += differ(series("p"), probed)
    if probed == live:
        log("perfbench: the invalidation probe changed no value")
    return mismatches


def verify_server(workload, inputs, client, warm, load):
    """Compare the live session's answers bitwise with a freshly loaded
    session on the same graph and states. Returns the mismatch count."""
    if workload == "serve_churn":
        return verify_churn(inputs, client, load)
    client.call("load_graph f " + os.path.join(inputs, "graph.edges"))
    client.call("load_states f " + os.path.join(inputs, "states.txt"))
    _, fresh = client.call("series f")
    _, live = client.call("series g")
    expected = ["%d %d %s" % (t, t + 1, warm[t][t + 1])
                for t in range(len(warm) - 1)]
    mismatches = differ(fresh, expected) + differ(live, expected)
    last = len(warm) - 1
    header, _ = client.call("distance f 0 %d" % last)
    return mismatches + (header.split()[-1] != warm[0][last])


def key_values_arg(values):
    return ",".join("%s=%s" % item for item in sorted(values.items()))


def run_server_window(workload, inputs, seed, seconds, spec, repeats,
                      events_path=None):
    limits = spec["latency_limits_ms"][workload]
    setups = []
    server = client = None
    try:
        for _ in range(repeats):
            if server:
                client.close()
                server.stop()
            server, client, seconds_taken, warm = set_up_server(
                workload, inputs, events_path)
            setups.append(seconds_taken)
        if workload == "serve_hot":
            write_expected(inputs, warm)
        before = client.stats()
        load = harness("load", workload, server.port, inputs, seed, seconds,
                       key_values_arg(limits),
                       key_values_arg(spec["serve_churn_schedule"]["rates"]),
                       timeout=seconds + 120)
        after = client.stats()
        memory = {field: server.status_mb(field)
                  for field in ("VmRSS", "VmHWM")}
        mismatches = verify_server(workload, inputs, client, warm, load)
    finally:
        if client:
            client.close()
        if server:
            server.stop()
    delta = {k: after[k] - before.get(k, 0) for k in after}
    events = []
    if events_path:
        with open(events_path) as lines:
            events = [json.loads(line) for line in lines if line.strip()]
    return {"setups": setups, "load": load, "after": after, "delta": delta,
            "mismatches": mismatches, "memory": memory, "events": events}


# ----------------------------------------------------------- metrics

def end_to_end(setups, ops_per_s, latency, good, total, peak_rss):
    """(name, value, unit, samples) of every end-to-end metric."""
    return [("setup_s", statistics.median(setups), "s", len(setups)),
            ("ops_per_s", ops_per_s, "1/s", total),
            ("latency_ms.p50", latency["p50"], "ms", latency["n"]),
            ("latency_ms.p90", latency["p90"], "ms", latency["n"]),
            ("goodput_frac", frac(good, total), "ratio", total),
            ("peak_rss_mb", peak_rss, "MB", 1)]


def shares(edge, sssp, transport):
    work = edge + sssp + transport
    return frac(edge, work), frac(sssp, work), frac(transport, work)


def fig12_layers(result):
    traced = result["traced"]
    t = traced["trace"]
    # phase_ns follows obs::ObsPhase: parse, dispatch, edge_cost, sssp,
    # transport, encode.
    edge, sssp, transport = t["phase_ns"][2], t["phase_ns"][3], t["phase_ns"][4]
    engine_runs = sum(t["backend_runs"])
    evals = t["evals"]
    edge_share, sssp_share, transport_share = shares(edge, sssp, transport)
    sweep = result["sweep_s"]
    wall_ns = sum(traced["ms"]) * 1e6
    return {
        "core.evals": evals,
        "core.sssp_runs_per_eval": frac(t["sssp_runs"], evals),
        "core.transport_solves_per_eval": frac(t["transport_solves"], evals),
        "core.phase_ms_per_eval": frac(edge + sssp + transport, evals) / 1e6,
        "opinion.edge_cost_builds": t["edge_cost_builds"],
        "opinion.edge_cost_share": edge_share,
        "paths.sssp_share": sssp_share,
        "paths.sssp_us_per_run": frac(sssp, engine_runs) / 1e3,
        "paths.settled_per_run": frac(t["sssp_settled"], engine_runs),
        "paths.ns_per_settled": frac(sssp, t["sssp_settled"]),
        "paths.runs.dijkstra": t["backend_runs"][0],
        "paths.runs.dial": t["backend_runs"][1],
        "paths.runs.delta": t["backend_runs"][2],
        "emd.suppliers_per_term": frac(t["suppliers"], t["terms"]),
        "emd.consumers_per_term": frac(t["consumers"], t["terms"]),
        "emd.banks_per_term": frac(t["banks"], t["terms"]),
        "flow.transport_share": transport_share,
        "flow.ms_per_solve": frac(transport, t["transport_solves"]) / 1e6,
        "flow.cells_per_solve": frac(t["cells"], t["transport_solves"]),
        "flow.ns_per_cell": frac(transport, t["cells"]),
        "util.pool_speedup": frac(sweep[0], sweep[1]),
        "util.parallelism": frac(edge + sssp + transport, wall_ns),
        "obs.trace_overhead": frac(traced["summary"]["p50"],
                                   result["untraced"]["summary"]["p50"]),
        "bench.samples": len(traced["ms"]),
    }


def event_p50_ms(events, kinds):
    values = [e["dispatch_ns"] / 1e6 for e in events
              if e.get("event") == "request" and e.get("kind") in kinds]
    return statistics.median(values) if values else 0.0


def latency_kind(load, workload):
    """The request kind whose latency is reported: serve_churn exists to
    score each snapshot as it arrives, so its latency is that of scoring
    (append due time to the scoring reply); the reads beside it count in
    ops_per_s and goodput_frac. serve_hot reports every request."""
    return load["kinds"]["score" if workload == "serve_churn" else "all"]


def server_layers(workload, untraced, traced):
    d, after, load = traced["delta"], traced["after"], traced["load"]
    requests = d["snd.req.ok"] + d["snd.req.error"]
    evals = d["snd.cache.result.misses"]
    edge = d["snd.phase.edge_cost.ns"]
    sssp = d["snd.phase.sssp.ns"]
    transport = d["snd.phase.transport.ns"]
    edge_share, sssp_share, transport_share = shares(edge, sssp, transport)
    engine_runs = sum(d["snd.sssp.%s.runs" % b]
                      for b in ("dijkstra", "dial", "delta"))
    retained = d["snd.mutate.results_retained"]
    erased = d["snd.mutate.results_erased"]
    events = traced["events"]
    return {
        "net.frames": d["snd.net.frames"],
        "net.frame_us.p50": after["snd.net.frame.latency.p50_ns"] / 1e3,
        "net.frame_us.p99": after["snd.net.frame.latency.p99_ns"] / 1e3,
        "net.handoff_us.p50": (after["snd.net.frame.latency.p50_ns"] -
                               after["snd.req.latency.p50_ns"]) / 1e3,
        "net.shed": (d["snd.net.conns.shed"] + d["snd.net.inflight.shed"] +
                     d["snd.net.backpressure.shed"]),
        "net.bytes_per_frame": frac(d["snd.net.read.bytes"] +
                                    d["snd.net.write.bytes"],
                                    d["snd.net.frames"]),
        "api.parse_us_per_req": frac(d["snd.phase.parse.ns"], requests) / 1e3,
        "api.encode_us_per_req": frac(d["snd.phase.encode.ns"],
                                      requests) / 1e3,
        "service.dispatch_us.p50": after["snd.req.latency.p50_ns"] / 1e3,
        "service.dispatch_us.p99": after["snd.req.latency.p99_ns"] / 1e3,
        "service.result_hit_frac": frac(d["snd.cache.result.hits"],
                                        d["snd.cache.result.hits"] + evals),
        "service.calc_builds": d["snd.cache.calc.builds"],
        "service.retained_frac": frac(retained, retained + erased),
        "service.mutate_ms.p50": event_p50_ms(events,
                                              ("add_edge", "remove_edge")),
        "service.append_ms.p50": event_p50_ms(events, ("append_state",)),
        "core.evals": evals,
        "core.sssp_runs_per_eval": frac(d["snd.work.sssp_runs"], evals),
        "core.transport_solves_per_eval": frac(
            d["snd.work.transport_solves"], evals),
        "core.phase_ms_per_eval": frac(edge + sssp + transport, evals) / 1e6,
        "opinion.edge_cost_builds": d["snd.work.edge_cost_builds"],
        "opinion.edge_cost_patches": d["snd.work.edge_cost_patches"],
        "opinion.edge_cost_share": edge_share,
        "paths.sssp_share": sssp_share,
        "paths.sssp_us_per_run": frac(sssp, engine_runs) / 1e3,
        "paths.settled_per_run": frac(d["snd.work.sssp_settled"], engine_runs),
        "paths.ns_per_settled": frac(sssp, d["snd.work.sssp_settled"]),
        "paths.runs.dijkstra": d["snd.sssp.dijkstra.runs"],
        "paths.runs.dial": d["snd.sssp.dial.runs"],
        "paths.runs.delta": d["snd.sssp.delta.runs"],
        "flow.transport_share": transport_share,
        "flow.ms_per_solve": frac(transport,
                                  d["snd.work.transport_solves"]) / 1e6,
        "util.parallelism": frac(edge + sssp + transport,
                                 d["snd.phase.dispatch.ns"]),
        "obs.trace_overhead": frac(latency_kind(load, workload)["p50"],
                                   latency_kind(untraced["load"],
                                                workload)["p50"]),
        "obs.events_dropped": d["snd.obs.events.dropped"],
        "bench.gen_lag_ms.p99": (load["gen_lag_ms"][1]
                                 if load["gen_lag_ms"] else 0.0),
        "bench.client_busy_frac": load["client_busy_frac"],
        "bench.samples": load["kinds"]["all"]["n"],
    }


# ---------------------------------------------------------- workloads

def check_fig12(result, seed, spec):
    """Golden checks; returns a list of problems."""
    problems = []
    golden = spec["golden"]["fig12_cold"]
    rel = golden["rel_tol"]
    for got, want in zip(result["probe_values"], golden["probe_values"]):
        if not close_enough(got, want, rel):
            problems.append("probe value %r != golden %r" % (got, want))
    per_seed = golden["seeds"].get(str(seed))
    windows = [result["untraced"]] + ([result["traced"]]
                                      if "traced" in result else [])
    for window in windows if per_seed else []:
        for got, want in zip(window["values"], per_seed["values"]):
            if not close_enough(got, want, rel):
                problems.append("seed %d value %r != golden %r" %
                                (seed, got, want))
        if window["shapes"] != per_seed["shapes"]:
            problems.append("seed %d emd shapes differ from golden" % seed)
    if "traced" in result:
        if result["traced"]["values"] != result["untraced"]["values"]:
            problems.append("traced values differ from untraced")
        if result["traced"]["shapes"] != result["untraced"]["shapes"]:
            problems.append("emd shape counts did not repeat")
    return problems


def run_fig12(args, inputs, spec):
    result = harness("fig12", inputs, args.seed, args.seconds, args.trace,
                     timeout=2 * args.seconds + 100)
    problems = check_fig12(result, args.seed, spec)
    window = result["untraced"]
    factor = spec["latency_limits_ms"]["fig12_cold"]["ms_per_changed_user"]
    good = sum(ms <= factor * n for ms, n in zip(window["ms"],
                                                 window["n_delta"]))
    attempted = len(window["ms"])
    failed = len(problems)
    report = {"attempted": attempted, "failed": failed, "problems": problems}
    if args.trace:
        layers = fig12_layers(result)
        return report, layers, []
    # Evaluations per second per n_delta cycle, median over the cycles.
    cycle = result["cycle"]
    rates = [cycle * 1e3 / sum(window["ms"][k:k + cycle])
             for k in range(0, attempted, cycle)]
    metrics = end_to_end(result["setup_s"], statistics.median(rates),
                         window["summary"], good, attempted,
                         result["peak_rss_mb"])
    return report, None, metrics


def run_server(args, inputs, spec):
    workload = args.workload
    health = spec["health_bounds"]
    events_path = os.path.join(inputs, "events.jsonl")
    if args.trace:
        untraced = run_server_window(workload, inputs, args.seed,
                                     args.seconds, spec, 1)
        traced = run_server_window(workload, inputs, args.seed, args.seconds,
                                   spec, 1, events_path)
        windows = [untraced, traced]
    else:
        untraced = run_server_window(workload, inputs, args.seed,
                                     args.seconds, spec,
                                     SETUP_REPEATS[workload])
        windows = [untraced]
    problems = []
    attempted = failed = 0
    for window in windows:
        load, delta = window["load"], window["delta"]
        kinds = load["kinds"]
        attempted += kinds["all"]["n"]
        failed += kinds["all"]["failed"] + window["mismatches"]
        if window["mismatches"]:
            problems.append("%d answers differ from a fresh session" %
                            window["mismatches"])
        if load["broken"]:
            problems.append("a load connection broke")
        if kinds["all"]["failed"]:
            problems.append("%d requests failed" % kinds["all"]["failed"])
        if workload == "serve_hot" and (delta["snd.work.sssp_runs"] or
                                        delta["snd.work.transport_solves"]):
            problems.append("serve_hot window did SSSP/transport work")
        if load["gen_lag_ms"] and (load["gen_lag_ms"][1] >
                                   health["gen_lag_ms.p99"]):
            problems.append("invalid run: generator lag p99 %.3f ms" %
                            load["gen_lag_ms"][1])
        if load["client_busy_frac"] > health["client_busy_frac"]:
            problems.append("invalid run: client busy %.3f" %
                            load["client_busy_frac"])
    report = {"attempted": attempted, "failed": failed, "problems": problems}
    if workload == "serve_churn":
        report["score"] = untraced["load"]["kinds"]["score"]
    if args.trace:
        return report, server_layers(workload, untraced, traced), []
    kinds = untraced["load"]["kinds"]
    total = kinds["all"]["n"]
    # The open loop's per-period counts are its schedule, so its rate is
    # replies over the time until the last reply arrived.
    rate = (total / untraced["load"]["window_s"]
            if workload == "serve_churn" else kinds["all"]["rate"])
    metrics = end_to_end(untraced["setups"], rate,
                         latency_kind(untraced["load"], workload),
                         total - kinds["all"]["late"], total,
                         untraced["memory"]["VmHWM"])
    report["memory"] = untraced["memory"]
    report["kinds"] = kinds
    return report, None, metrics


def per_layer_metrics(spec):
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists
    them; spec.json must give a prediction for exactly these names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as bench_file:
        listed = [(m["name"], m["unit"])
                  for m in json.load(bench_file)["per_layer"]]
    if {name for name, _ in listed} != set(spec["predictions"]):
        raise BenchError("per-layer metrics of BENCHMARK.json and the "
                         "predictions of perfbench/spec.json differ")
    return listed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig12_cold", "serve_hot", "serve_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(HERE, "spec.json")) as spec_file:
            spec = json.load(spec_file)
        per_layer = per_layer_metrics(spec)
        build()
        inputs = os.path.join(BUILD, "runs", "%s-%d" % (args.workload,
                                                        args.seed))
        shutil.rmtree(inputs, ignore_errors=True)
        os.makedirs(inputs)
        harness("gen", args.workload, args.seed, inputs)
        runner = run_fig12 if args.workload == "fig12_cold" else run_server
        report, layers, metrics = runner(args, inputs, spec)
        shutil.rmtree(inputs, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 1

    print("perfbench %s seed %d seconds %g trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for kind, summary in sorted(report.get("kinds", {}).items()):
        print("  kind %-9s n %-8d failed %-4d late %-5d p50 %.4f ms  "
              "p90 %.4f ms  p99 %.4f ms" %
              (kind, summary["n"], summary["failed"], summary["late"],
               summary["p50"], summary["p90"], summary["p99"]))
    if "memory" in report:
        print("  server VmRSS %.3f MB  VmHWM %.3f MB" %
              (report["memory"]["VmRSS"], report["memory"]["VmHWM"]))
    for problem in report["problems"]:
        print("  PROBLEM: " + problem)
    out = {}
    if args.trace:
        for name, unit in per_layer:
            value = float(layers.get(name, 0.0))
            print("  %-32s %16.6f %s" % (name, value, unit))
            out[name] = {"value": value, "unit": unit}
    else:
        for name, value, unit, samples in metrics:
            print("  %-32s %16.6f %-6s samples %d" %
                  (name, value, unit, samples))
            out[name] = {"value": value, "unit": unit}
        print("  %-32s %16.6f %-6s samples %d" %
              ("failed_frac", frac(report["failed"], report["attempted"]),
               "ratio", report["attempted"]))
        if "score" in report:
            s = report["score"]
            for q in ("p50", "p90"):
                print("  %-32s %16.6f %-6s samples %d" %
                      ("score_ms." + q, s[q], "ms", s["n"]))
    print(json.dumps({"correct": not report["problems"],
                      "attempted": max(1, report["attempted"]),
                      "failed": report["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
