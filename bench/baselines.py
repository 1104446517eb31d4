"""Re-measure the fixed single cases of the ROADMAP baseline table.

Usage (from the repository root):

    python3 bench/baselines.py [--repeats N]

CLI rows go through the same in-process ``call`` as bench/run.py, so
they exclude interpreter start (bench/run.py reports that as setup_s);
``energy_oracle`` and ``normalize`` are timed as direct calls.  Each row
is timed N times after one warm-up call and printed as best, median and
quartiles in milliseconds, one JSON object per line.  The shape-check
cache is cleared before every wavefunction call, as a fresh CLI process
would have it.
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sets the BLAS thread limits before numpy loads)


def _time(fn, repeats, before=None):
    fn()
    out = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        out.append(1e3 * (time.perf_counter() - t0))
    q = statistics.quantiles(out, n=4) if len(out) > 1 else out * 3
    return {"best_ms": min(out), "median_ms": statistics.median(out),
            "q1_ms": q[0], "q3_ms": q[2], "repeats": repeats}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import fracwell.cli as cli
    from fracwell import deltawell

    cold = deltawell._cached_shape.cache_clear
    cfg = deltawell.PotentialConfig(alpha=1.5, lam=0.8)
    state = deltawell.energy_closed_form(cfg)
    frac = ["--alpha", "1.5", "--lambda", "0.8"]
    rows = [
        ("CLI energy (1.5, 0.8)",
         lambda: run.call(cli, ["--mode", "energy"] + frac), None),
        ("CLI wavefunction (1.5, 0.8), 101 pts",
         lambda: run.call(cli, ["--mode", "wavefunction"] + frac), cold),
        ("CLI wavefunction (1.5, 0.8), README grid 25 pts",
         lambda: run.call(cli, ["--mode", "wavefunction"] + frac
                          + ["--x-min", "0", "--x-max", "6",
                             "--x-steps", "25"]), cold),
        ("CLI validate", lambda: run.call(cli, ["--mode", "validate"]), None),
        ("energy_oracle (1.5, 0.8)",
         lambda: deltawell.energy_oracle(cfg), None),
        ("normalize (1.5, 0.8)",
         lambda: deltawell.normalize(state, cfg), None),
    ]
    for name, fn, before in rows:
        print(json.dumps({"case": name, **_time(fn, args.repeats, before)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
