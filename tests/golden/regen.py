"""Rewrite the golden CLI outputs in this directory.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py [--diff]

Each case of CASES is one `fracwell` command; its output goes to
<name>.csv here, or <name>.json for a `--format json` command.
tests/test_golden.py runs the same commands and compares the parsed
numbers with these files.  A change that moves an output on purpose
reruns this script and lists the rows that moved.  It rewrites only the
files in which test_golden.differences names a moved row, and those
that are missing, so last-digit drift below the comparison tolerance
leaves the files as they are.  With --diff it writes nothing: it prints
each moved row as `file: row R: columns [old] -> [new]` and exits 1
when any moved, 0 when none did.
"""

import argparse
import contextlib
import importlib.util
import io
import pathlib
import sys

from fracwell import cli
from fracwell.deltawell import PotentialConfig, _profile_block

HERE = pathlib.Path(__file__).resolve().parent

Z = "0.05,0.3,0.9,1,1.3,4,7,10,15,20,30,45,200"


def _spec(params):
    """--hfox text of a parameter block, every float at full precision."""
    def pairs(ps):
        return ",".join(f"{a!r}:{b!r}" for a, b in ps)
    return (f"{params.m},{params.n},{params.p},{params.q};"
            f"{pairs(params.upper)};{pairs(params.lower)}")


def _profile_spec(alpha, lam):
    return _spec(_profile_block(PotentialConfig(alpha=alpha, lam=lam)))


_HFOX = {
    "exp": "1,0,0,1;;0:1",
    "2exp_z2": "1,0,0,1;;0:0.5",
    "rational": "1,1,1,1;0:1;0:1",
    "shifted_rational": "1,1,1,1;0.25:1;0.25:1",
    "mixed": "2,1,2,3;0.3:0.7,0.2:1.1;0.1:1,0.4:0.6,0.2:0.9",
    "exp_inverse": "0,1,1,0;0:1;",   # e^(-1/z) / z, a block with no left poles
    "profile_2_1": _profile_spec(2.0, 1.0),
    "profile_1.05_1": _profile_spec(1.05, 1.0),
}

_WAVE = {
    "1.5_0.8": ["--alpha", "1.5", "--lambda", "0.8"],
    "1.2_0.3": ["--alpha", "1.2", "--lambda", "0.3"],
    "1.9_1": ["--alpha", "1.9", "--lambda", "1"],
    "2_1": ["--alpha", "2", "--lambda", "1"],
    "2_1_gamma100": ["--alpha", "2", "--lambda", "1", "--gamma", "100",
                     "--x-min", "0", "--x-max", "1", "--x-steps", "11"],
    "1.05_1": ["--alpha", "1.05", "--lambda", "1", "--x-min", "0",
               "--x-max", "2"],
}

_ENERGY = {
    "1.5_0.8": ["--alpha", "1.5", "--lambda", "0.8"],
    "1.2_0.3": ["--alpha", "1.2", "--lambda", "0.3"],
}

# each sweep row is named by its alpha, unique in these grids
_SWEEP = {
    "alpha_0.8": ["--sweep-alpha", "1.2,1.5,1.8,2.0", "--lambda", "0.8"],
    "alpha_1": ["--sweep-alpha", "1.2,1.5,1.8,2.0", "--lambda", "1"],
}

# file name -> fracwell argv
CASES = {
    **{f"energy_{k}": ["--mode", "energy", *v] for k, v in _ENERGY.items()},
    # the form in which the benchmark's spectrum workload asks for energies
    **{f"energy_json_{k}": ["--mode", "energy", "--format", "json", *v]
       for k, v in _ENERGY.items()},
    **{f"sweep_{k}": ["--mode", "sweep", *v] for k, v in _SWEEP.items()},
    **{f"hfox_{k}": ["--mode", "hfox-eval", "--hfox", v, "--z", Z]
       for k, v in _HFOX.items()},
    **{f"wavefunction_{k}": ["--mode", "wavefunction", *v]
       for k, v in _WAVE.items()},
    # the JSON forms of one anchor block, one wavefunction, one sweep and
    # of the check report
    "hfox_json_rational": ["--mode", "hfox-eval", "--format", "json",
                           "--hfox", _HFOX["rational"], "--z", Z],
    "wavefunction_json_2_1_gamma100": ["--mode", "wavefunction",
                                       "--format", "json",
                                       *_WAVE["2_1_gamma100"]],
    "sweep_json_alpha_1": ["--mode", "sweep", "--format", "json",
                           *_SWEEP["alpha_1"]],
    "validate": ["--mode", "validate"],
    "validate_json": ["--mode", "validate", "--format", "json"],
}


def filename(name):
    """The golden file of a case: .json for a JSON command, else .csv."""
    argv = CASES[name]
    json_out = "--format" in argv and argv[argv.index("--format") + 1] == "json"
    return f"{name}.json" if json_out else f"{name}.csv"


def render(argv):
    """(exit code, output text) of one fracwell command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _differences():
    """test_golden.differences, loaded from its file beside this
    directory (tests/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "test_golden", HERE.parent / "test_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.differences


def main(argv=None):
    parser = argparse.ArgumentParser(description="Rewrite, or with --diff "
                                     "compare, the golden CLI outputs.")
    parser.add_argument("--diff", action="store_true",
                        help="print the moved rows and write nothing")
    diff = parser.parse_args(argv).diff
    differences = _differences()
    moved = False
    for name, argv_ in CASES.items():
        code, text = render(argv_)
        if code != 0:
            sys.exit(f"{name}: fracwell exited {code}")
        path = HERE / filename(name)
        lines = (differences(path.read_text(encoding="utf-8"), text)
                 if path.exists() else ["file missing"])
        if lines and not diff:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {filename(name)}")
        elif lines:
            for line in lines:
                print(f"{filename(name)}: {line}")
            moved = True
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
