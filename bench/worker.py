"""One fresh benchmark process: set-up timing, or a closed-loop run.

    python3 bench/worker.py setup ROOT [ARGV...]
    python3 bench/worker.py run ROOT WORKLOAD SEED SECONDS TRACE

``setup`` imports hflkit from ROOT/src, builds the CLI parser and parses
the first request (ARGV), and prints the raw and the reference seconds
that took.  Nothing but sys and time is imported before the clock starts.

``run`` sends the workload's seeded requests one at a time and checks
each answer with its oracle, outside the timed region.  It stops on the
first block boundary after SECONDS of request time once it holds
MIN_SAMPLES latencies (so the p90 has ten samples beyond it).  With
TRACE=1 it runs the first half of that untraced, then replays the same
requests with every layer traced.  It prints one JSON object.

Reference seconds: on a shared virtual machine (2 vCPUs, Intel Xeon,
other tenants on the host) CPU speed changes by up to 2x over seconds to
minutes, and a process's CPU time slows as much as its wall time.  So
every timed interval is bracketed by a fixed pure-Python calibration
loop and scaled by REFERENCE_CALIBRATION_S / (mean time of the two
loops): the result is the wall time the interval takes when the loop
takes REFERENCE_CALIBRATION_S, the loop's time on that VM when it runs
fastest.  The loop runs no hflkit code, so a change to the program
cannot move it.
"""

import sys
import time

REFERENCE_CALIBRATION_S = 0.0018
_ROWS = [[(i * j) % 11 for j in range(24)] for i in range(24)]


def calibrate() -> float:
    """Seconds taken by a fixed mix of integer, dict and string work (~2 ms)."""
    start = time.perf_counter()
    seen = {}
    acc = 0
    for k in range(48):
        for row in _ROWS:
            acc += sum(a * b for a, b in zip(row, _ROWS[acc % 24]))
            seen[acc & 1023] = row
        ",".join([str(x) for x in _ROWS[k % 24]])
    return time.perf_counter() - start


def reference_scale(before: float, after: float) -> float:
    return 2 * REFERENCE_CALIBRATION_S / (before + after)


def setup(root: str, argv: list[str]) -> None:
    sys.path.insert(0, root + "/src")
    calibrate()  # the first pass through the loop is slower
    before = calibrate()
    start = time.perf_counter()
    import hflkit.cli

    parser = hflkit.cli.build_parser()
    if argv:
        parser.parse_args(argv)
    elapsed = time.perf_counter() - start
    print(repr(elapsed), repr(elapsed * reference_scale(before, calibrate())))


MIN_SAMPLES = 100
# Stop regardless once this many times SECONDS of requests have run.
MAX_STRETCH = 3
REQUEST_LIMIT_S = 10.0


class RequestTimeout(Exception):
    pass


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> None:
    import contextlib
    import io
    import json
    import os
    import resource
    import signal

    sys.path[:0] = [root + "/src", os.path.dirname(os.path.abspath(__file__))]
    import oracles
    import workloads

    import hflkit.cli as cli
    import hflkit.complexes as complexes

    def on_alarm(signum, frame):
        raise RequestTimeout()

    signal.signal(signal.SIGALRM, on_alarm)

    def execute(req):
        """Run one request; returns (seconds, outcome, stdout text, error or None)."""
        out = io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        start = time.perf_counter()
        try:
            if req.argv is not None:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    outcome = cli.main(req.argv)
            else:
                outcome = complexes.homology(complexes.GradedComplex.from_json_dict(req.doc))
            error = None
        except RequestTimeout:
            outcome, error = None, "timeout"
        except Exception as exc:  # a failed request is counted, the run goes on
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, outcome, out.getvalue(), error

    tally = {"attempted": 0, "timeouts": 0, "errors": 0, "wrong": 0}
    reasons: list[str] = []
    release = heap_release()

    def measure(req, runner=execute):
        """Run, check and clean up after one request; returns (seconds, scale, bytes)."""
        before = calibrate()
        elapsed, outcome, text, error = runner(req)
        scale = reference_scale(before, calibrate())
        tally["attempted"] += 1
        if error is None:
            if req.argv is not None:
                error = oracles.CLI_ORACLES[req.kind](req, outcome, text)
            else:
                error = oracles.check_homology(req, outcome)
            if error is not None:
                tally["wrong"] += 1
        elif error == "timeout":
            tally["timeouts"] += 1
        else:
            tally["errors"] += 1
        if error is not None and len(reasons) < 5:
            reasons.append(f"{req.kind} size={req.size}: {error}")
        size = len(text)
        outcome = text = None
        release()
        return elapsed, scale, size

    stream = workloads.WORKLOADS[workload](seed)
    block = next(stream)
    check_inputs(block)
    measure(block[0])  # warm-up, untimed: lazy set-up stays out of the first latency

    budget = seconds / 2 if trace else seconds
    # The untraced run keeps no request objects, so peak RSS is not the
    # benchmark's own inputs piling up; the traced run keeps them to replay.
    requests, facts, raw, latencies = [], [], [], []
    busy = 0.0
    while True:
        for req in block:
            elapsed, scale, size = measure(req)
            if trace:
                requests.append(req)
            facts.append(request_facts(req, size))
            raw.append(elapsed)
            latencies.append(elapsed * scale)
            busy += elapsed
        if busy >= budget and (trace or len(latencies) >= MIN_SAMPLES):
            break
        if busy >= MAX_STRETCH * seconds:
            break
        block = next(stream)
        check_inputs(block)

    report = {
        "busy_s": busy,
        "raw_latencies": raw,
        "latencies": latencies,
        "inputs": input_properties(facts),
    }
    if trace:
        report.update(traced_replay(root, workload, seed, requests, measure, execute))
        report["layers"]["bench.trace_overhead"] = sum(latencies) / report.pop("traced_s")
    else:
        report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.update(tally)
    report["reasons"] = reasons
    print(json.dumps(report))


def traced_replay(root, workload, seed, requests, measure, execute) -> dict:
    """Replay ``requests`` with every layer traced; per-layer metrics and the span file."""
    import gzip
    import json
    import os

    from tracer import Tracer

    tracer = Tracer()
    traced_execute = tracer.wrap("bench.request", execute)
    scales, out_bytes = [], []
    traced_s = 0.0
    tracer.install()
    try:
        for i, req in enumerate(requests):
            tracer.begin_request(i)
            elapsed, scale, size = measure(req, traced_execute)
            scales.append(scale)
            out_bytes.append(size)
            traced_s += elapsed * scale
    finally:
        tracer.uninstall()

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json.gz")
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "names": tracer.names,
                "requests": [[r.kind, r.size, s] for r, s in zip(requests, scales)],
                "fields": ["name", "parent", "request", "start_s", "end_s"],
                "spans": list(
                    zip(tracer.name, tracer.parent, tracer.request, tracer.start, tracer.end)
                ),
            },
            fh,
        )
    return {
        "layers": layer_metrics(tracer, requests, out_bytes, scales),
        "traced_s": traced_s,
        "spans_file": os.path.relpath(path, root),
        "spans": len(tracer.start),
    }


def heap_release():
    """Return a function that hands freed heap memory back to the OS.

    Called between requests, outside the timed region, so each request
    starts from about the memory a fresh CLI process has and peak RSS is
    the largest single request's, not an artefact of request order.
    Without glibc it does nothing.
    """
    import ctypes
    import ctypes.util

    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


def check_inputs(block) -> None:
    """Every generated PD code must parse as a planar PlanarDiagram."""
    from hflkit.kauffman import PlanarDiagram, regions

    for req in block:
        if req.kind == "kauffman_pd":
            diagram = PlanarDiagram.from_text(req.expect["pd"])
            regions(diagram)  # raises unless the rotation system is planar


def request_facts(req, out_bytes: int) -> tuple:
    """(kind, key, size, output bytes, generators, nonzeros, dense) of one request."""
    if req.doc is None:
        return req.kind, req.key, req.size, out_bytes, 0, 0, False
    doc = req.doc
    return (req.kind, req.key, req.size, out_bytes, len(doc["generators"]),
            len(doc["differential"]), req.expect["dense"])


def input_properties(facts: list[tuple]) -> dict:
    seen, repeats = set(), 0
    for _, key, *_ in facts:
        repeats += key in seen
        seen.add(key)
    kinds = [f[0] for f in facts]
    sizes = sorted(f[2] for f in facts)
    out_bytes = [f[3] for f in facts]
    props = {
        "requests": len(facts),
        "kinds": {k: kinds.count(k) for k in sorted(set(kinds))},
        "size_min": sizes[0],
        "size_median": sizes[len(sizes) // 2],
        "size_max": sizes[-1],
        "repeat_share": repeats / len(facts),
        "output_bytes_mean": sum(out_bytes) / len(facts),
        "output_bytes_max": max(out_bytes),
    }
    if facts[0][4]:
        props["generators_mean"] = sum(f[4] for f in facts) / len(facts)
        props["nonzeros_mean"] = sum(f[5] for f in facts) / len(facts)
        props["dense_share"] = sum(f[6] for f in facts) / len(facts)
    return props


def layer_metrics(tracer, requests, out_bytes, scales) -> dict:
    """Per-layer metrics; times are reference seconds of self time per request."""
    own, count = tracer.self_times(scales)
    per_request = len(requests)

    def self_s(name):
        return own.get(name, 0.0) / per_request

    def calls(name):
        return count.get(name, 0) / per_request

    spinc_ids = {i for i, r in enumerate(requests) if r.kind == "hfl_spinc"}
    homology_id = tracer.names.index("complexes.homology") if "complexes.homology" in tracer.names else -1
    spinc_homology = sum(
        1 for i in range(len(tracer.start))
        if tracer.name[i] == homology_id and tracer.request[i] in spinc_ids
    )
    request_id = tracer.names.index("bench.request")
    request_s = sum(
        (tracer.end[i] - tracer.start[i]) * scales[tracer.request[i]]
        for i in range(len(tracer.start)) if tracer.name[i] == request_id
    )
    snf_calls = count.get("matrices.snf", 0)
    homology_calls = count.get("complexes.homology", 0)
    cli_bytes = [b for r, b in zip(requests, out_bytes) if r.argv is not None]
    return {
        "bench.request_s": request_s / per_request,
        "complexes.validate_s": self_s("complexes.validate"),
        "matrices.mul_s": self_s("matrices.mul"),
        "matrices.snf_s": self_s("matrices.snf"),
        "matrices.snf_calls": calls("matrices.snf"),
        "matrices.snf_entries": tracer.snf_entries / per_request,
        "matrices.snf_empty_ratio": tracer.snf_empty / snf_calls if snf_calls else 0.0,
        "matrices.max_coeff_bits": tracer.max_coeff_bits,
        "matrices.submatrix_s": self_s("matrices.submatrix"),
        "complexes.homology_calls": calls("complexes.homology"),
        "complexes.homology_self_s": self_s("complexes.homology"),
        "complexes.homology_repeat_ratio": (
            tracer.homology_repeats / homology_calls if homology_calls else 0.0
        ),
        "longitude.hfl_compute_calls_per_request": calls("longitude.hfl_compute"),
        "longitude.classes_per_requested_class": (
            spinc_homology / len(spinc_ids) if spinc_ids else 0.0
        ),
        "longitude.build_s": self_s("longitude.build"),
        "longitude.generators": tracer.generators / per_request,
        "complexes.density": tracer.density_sum / tracer.density_n if tracer.density_n else 0.0,
        "complexes.from_json_s": self_s("complexes.from_json"),
        "complexes.euler_s": self_s("complexes.euler"),
        "kauffman.parse_s": self_s("kauffman.parse"),
        "kauffman.regions_s": self_s("kauffman.regions"),
        "kauffman.regions_calls": calls("kauffman.regions"),
        "kauffman.enumerate_s": self_s("kauffman.enumerate"),
        "kauffman.states": tracer.states / per_request,
        "kauffman.gradings_s": self_s("kauffman.gradings"),
        "cli.handler_s": self_s("cli.handler"),
        "cli.render_s": self_s("cli.render"),
        "cli.output_bytes": sum(cli_bytes) / len(cli_bytes) if cli_bytes else 0.0,
        "satellite.whitehead_self_s": self_s("satellite.whitehead"),
        "satellite.alexander_s": self_s("satellite.alexander"),
        "laurent.parse_s": self_s("laurent.parse"),
    }


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3:])
    else:
        _, _, root, workload, seed, seconds, trace = sys.argv
        run(root, workload, int(seed), float(seconds), trace == "1")
