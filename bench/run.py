"""fracwell benchmark: closed-loop CLI requests, checked against references.

Usage (from the repository root):

    python3 bench/run.py --workload {spectrum,profile,validate} \
        --seed N --seconds S --trace {0,1}

One client sends one request at a time through ``fracwell.cli.main(argv)``
in this process, with stdout captured, and waits for it: the path the
``fracwell`` command runs, minus interpreter start.  Interpreter start
plus ``import fracwell`` is measured separately, in fresh child
interpreters, as ``setup_s``.  Requests come from bench/workloads.py and
depend only on (workload, seed).  After the timed loop every output is
judged against bench/reference.py, computed in a child process that
never imports fracwell.

--trace 0 sends the workload's request set in repeated passes for
--seconds and prints the end-to-end metrics.  --trace 1 sends the set in
rounds of one untraced and one traced pass (bench/tracing.py) and prints
the per-layer metrics.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
JSON report with the details (passes, tail percentile, fail_frac,
worst_err_ratio, failed requests, output digest).  A run is incorrect
when its outputs are not reproducible or a request fails outside the
seed program's known failure regions (reference.known_failure).  Exits
2 without a result when the program's sources are missing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# one request in flight on one core; small BLAS thread pools also keep
# reductions in a fixed order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LEDGER = os.path.join(HERE, ".runs", "digests.json")
SETUP_SPAWNS = 16      # fresh interpreters timed per run
SETUP_FIRST = 4        # of them before the loop, the rest between rounds

sys.path.insert(0, HERE)
import reference  # noqa: E402
import workloads  # noqa: E402


def _die(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


# --- set-up ------------------------------------------------------------------

_READY = ("import sys; sys.path.insert(0, sys.argv[1]); import fracwell.cli; "
          "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def measure_setup(spawns):
    """Seconds from spawning a fresh interpreter to fracwell ready, one
    per spawn."""
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _READY, SRC],
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line != b"ready\n":
                _die("fresh interpreter could not import fracwell")
        times.append(dt)
    return times


def source_hash():
    """Hash of what the outputs depend on: the program and the inputs."""
    pkg = os.path.join(SRC, "fracwell")
    paths = [os.path.join(pkg, n) for n in sorted(os.listdir(pkg))
             if n.endswith(".py")] + [os.path.join(HERE, "workloads.py")]
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


# --- requests --------------------------------------------------------------------

def call(cli, argv):
    """One closed-loop request: (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:   # noqa: BLE001 - a crash is a failed request
            rc = -1
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue()


def judge(workload, requests, results):
    """Error ratio per request (inf for a failed one), from references
    computed in a child interpreter."""
    xs = None
    if workload == "profile":
        lo, hi, n = (float(v) for v in workloads.PROFILE_GRID)
        n = int(n)
        xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    refs = []
    if workload != "validate":
        items = [{"workload": workload, "config": r.config.as_dict(), "xs": xs}
                 for r in requests]
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "reference.py")],
            input=json.dumps(items), capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            _die("reference computation failed")
        refs = json.loads(proc.stdout)
    ratios = []
    for i, (req, (_, rc, out)) in enumerate(zip(requests, results)):
        if rc != 0:
            ratios.append(math.inf)
            continue
        try:
            if workload == "spectrum":
                r = reference.judge_energy(out, req.config.as_dict(), refs[i])
            elif workload == "profile":
                r = reference.judge_profile(out, req.config.as_dict(),
                                            refs[i], xs)
            else:
                r = reference.judge_validate(out)
        except (ValueError, KeyError, IndexError, TypeError):
            r = math.inf   # unparsable output
        ratios.append(r if math.isfinite(r) else math.inf)
    return ratios


def digest(results):
    h = hashlib.sha256()
    for _, rc, out in results:
        h.update(f"{rc}\n".encode())
        h.update(out.encode())
    return h.hexdigest()[:16]


def ledger_check(workload, seed, src_hash, dig):
    """Compare dig with earlier runs of the same code and seed; True if
    they agree or none was recorded."""
    key = f"{workload}/{seed}/{src_hash}"
    try:
        with open(LEDGER, encoding="utf-8") as fh:
            book = json.load(fh)
    except (OSError, ValueError):
        book = {}
    seen = book.setdefault(key, dig)
    os.makedirs(os.path.dirname(LEDGER), exist_ok=True)
    tmp = LEDGER + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(book, fh, indent=0, sort_keys=True)
    os.replace(tmp, LEDGER)
    return seen == dig


# --- statistics ------------------------------------------------------------------

def tail(latencies):
    """Highest percentile with at least 10 samples beyond it, not below
    the median: (value, percentile, samples beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    idx = max(n - 11, n // 2)
    return xs[idx], 100.0 * (idx + 1) / n, n - 1 - idx


# --- modes ---------------------------------------------------------------------

def run_passes(cli, requests, seconds, reset, tracer, between):
    """Send the request set in passes for `seconds`, at least once; with
    a tracer (else None), each round is an untraced pass and then a traced one.
    reset() runs before every pass, between() after every round.

    Returns the first pass's results, whether every pass printed the
    same bytes, each request's untraced latencies, and the wall times of
    the untraced and the traced passes.
    """
    latencies = [[] for _ in requests]
    walls = {False: [], True: []}
    first, deterministic = None, True
    t_start = time.perf_counter()
    round_s = 0.0
    # a round starts only if one as long as the last still fits the time
    while not walls[False] or (time.perf_counter() - t_start + round_s
                               <= seconds):
        t_round = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            reset()
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            results = [call(cli, req.argv) for req in requests]
            walls[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
            else:
                for lat, (dt, _, _) in zip(latencies, results):
                    lat.append(dt)
            if first is None:
                first = results
            elif [r[1:] for r in results] != [r[1:] for r in first]:
                deterministic = False
        between()
        round_s = time.perf_counter() - t_round
    return first, deterministic, latencies, walls


def layer_metrics(tracer, n, walls, checks):
    passes = len(walls[True])
    per = 1.0 / (n * passes)
    c, s = tracer.counts, tracer.self_s
    m = {}
    for layer in ("quadrature", "gammafn", "hfox", "measure", "deltawell",
                  "checks", "cli"):
        m[f"{layer}.self_s"] = (s[layer] * per, "s")
    m["quadrature.adaptive_calls"] = (c["quadrature.integrate_adaptive"] * per,
                                      "count")
    m["quadrature.panels"] = (c["quadrature.panels"] * per, "count")
    m["quadrature.oscillatory_calls"] = (
        c["quadrature.integrate_oscillatory"] * per, "count")
    m["quadrature.tail_chunks"] = (c["quadrature.tail_chunks"] * per, "count")
    m["quadrature.root_steps"] = (c["quadrature.root_steps"] * per, "count")
    m["gammafn.calls"] = (c["gammafn.calls"] * per, "count")
    m["gammafn.elements_per_call"] = (
        c["gammafn.elements"] / c["gammafn.calls"] if c["gammafn.calls"] else 0.0,
        "count")
    m["hfox.eval_auto_calls"] = (c["hfox.eval_auto"] * per, "count")
    m["hfox.series_accept_frac"] = (
        c["hfox.series_accepted"] / c["hfox.eval_auto"]
        if c["hfox.eval_auto"] else 0.0, "ratio")
    m["hfox.contour_calls"] = (c["hfox.eval_contour"] * per, "count")
    m["hfox.mellin_checks"] = (c["hfox.mellin_numeric_check"] * per, "count")
    m["measure.integrand_points"] = (c["measure.integrand_points"] * per,
                                     "count")
    m["deltawell.oracle_calls"] = (c["deltawell.energy_oracle"] * per, "count")
    m["deltawell.oracle_g_evals"] = (c["deltawell.oracle_g_evals"] * per,
                                     "count")
    m["deltawell.position_points"] = (
        c["deltawell.position_wavefunction_quadrature"] * per, "count")
    m["deltawell.shape_checks"] = (c["deltawell.hfox_shape_check"] * per,
                                   "count")
    for name in ("energy_oracle", "normalize"):
        calls = c[f"deltawell.{name}"]
        m[f"deltawell.{name}_s"] = (
            tracer.inclusive_s[name] / calls if calls else 0.0, "s")
    for name in checks:
        m[f"checks.{name}_s"] = (tracer.check_s[name] * per, "s")
    layer_sum = sum(s[layer] for layer in s)
    traced_wall = sum(walls[True])
    m["trace.wall_s"] = (traced_wall * per, "s")
    m["trace.harness_s"] = ((traced_wall - layer_sum) * per, "s")
    # best pass against best pass, as the untraced latencies are taken
    m["trace.overhead_frac"] = (min(walls[True]) / min(walls[False]) - 1.0,
                                "ratio")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracwell", "cli.py")):
        _die(f"no fracwell sources under {SRC}; run from a full checkout")

    # set-up is timed in spawns spread through the run, and its best is
    # kept, so a slow spell of the machine does not decide it
    setup = measure_setup(SETUP_FIRST) if not args.trace else []
    later = SETUP_SPAWNS - SETUP_FIRST
    spawn_at = [args.seconds * (k + 1) / (later + 1) for k in range(later)]
    t_loop = time.perf_counter()

    def between():
        # one spawn at each of `later` evenly spaced moments of the loop
        while setup and spawn_at and (time.perf_counter() - t_loop
                                      >= spawn_at[0]):
            spawn_at.pop(0)
            setup.extend(measure_setup(1))

    sys.path.insert(0, SRC)
    import fracwell
    import fracwell.cli as cli
    from fracwell import deltawell

    stream = workloads.stream(args.workload, args.seed)
    requests = [next(stream) for _ in range(workloads.SET_SIZE[args.workload])]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(fracwell)
    # every pass starts from the cold shape cache a fresh CLI process has
    shape_cache = getattr(deltawell, "_cached_shape", None)
    reset = shape_cache.cache_clear if shape_cache else (lambda: None)
    results, deterministic, latencies, walls = run_passes(
        cli, requests, args.seconds, reset, tracer, between)
    passes = len(walls[False]) + len(walls[True])
    if setup:
        setup.extend(measure_setup(SETUP_SPAWNS - len(setup)))

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "requests": len(requests),
              "passes": passes}
    if args.trace:
        metrics = layer_metrics(tracer, len(requests), walls,
                                tracer.check_names())
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        best = [min(lat) for lat in latencies]
        tail_v, tail_pct, beyond = tail(best)
        metrics = {
            "requests_per_s": (len(best) / sum(best), "req/s"),
            "latency_p50_ms": (1e3 * statistics.median(best), "ms"),
            "latency_tail_ms": (1e3 * tail_v, "ms"),
            "setup_s": (min(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        report.update(tail_percentile=round(tail_pct, 2),
                      tail_samples_beyond=beyond)

    # every pass prints the same bytes (checked), so the first is judged
    # and counts scale by passes
    ratios = judge(args.workload, requests, results)
    bad = [i for i, r in enumerate(ratios) if not r <= 1.0]
    unexpected = [i for i in bad if requests[i].config is None
                  or not reference.known_failure(
                      args.workload, requests[i].config.as_dict())]
    ok = [r for r in ratios if r <= 1.0]
    dig = digest(results)
    same = ledger_check(args.workload, args.seed, source_hash(), dig)
    if not same:
        print(f"bench: output digest {dig} differs from an earlier run of "
              f"the same code and seed", file=sys.stderr)
    for i in unexpected:
        print(f"bench: request failed outside the known failure regions: "
              f"{' '.join(requests[i].argv)}", file=sys.stderr)
    report.update(
        digest=dig, digest_agrees=same, deterministic=deterministic,
        failed_requests=len(bad), unexpected_failures=len(unexpected),
        loud_failures=sum(1 for _, rc, _ in results if rc != 0),
        failures=[{"index": i, "exit": results[i][1],
                   "argv": " ".join(requests[i].argv)} for i in bad],
        check_metrics={
            "fail_frac": {"value": len(bad) / len(requests), "unit": "ratio"},
            "worst_err_ratio": {"value": max(ok) if ok else None,
                                "unit": "ratio"}})
    print(json.dumps(report))
    print(json.dumps({
        "correct": bool(same and deterministic and not unexpected),
        "attempted": len(requests) * passes,
        "failed": len(bad) * passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
