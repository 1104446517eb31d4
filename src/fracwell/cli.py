"""Command line front end.

Five modes behind one flag interface: energy (closed form and oracle
side by side), wavefunction (both position routes on an x grid), sweep
(energy table over parameter grids), validate (the named consistency
suite from fracwell.checks), hfox-eval (direct H-function evaluation).

Output contract, kept byte-deterministic for identical inputs:
  - floats are formatted to 12 significant digits in scientific
    notation, in CSV cells and (round-tripped through that string) in
    JSON numbers alike;
  - CSV: header line first, comma separation, LF endings, UTF-8;
    wavefunction mode prepends its scalar metadata as '# key = value'
    comment lines above the header so the table itself stays flat;
  - JSON: one object {"meta": {...}, "rows": [...]} with keys in fixed
    insertion order.

Config files are plain 'key = value' lines with '#' comments; keys are
the long flag names without the leading dashes; explicit flags always
override file values.

Exit codes: 0 success, 1 validation-suite failure, 2 domain or usage
error, 3 numerical-convergence failure (a NumericalFailure, or a result
beyond the double range).
"""

import argparse
import csv
import io
import itertools
import json
import math
import sys

import numpy as np

from . import __version__, checks
from .hfox import HFoxParams, eval_auto
from .quadrature import NumericalFailure, QuadSpec
from .deltawell import (PotentialConfig, DomainError,
                        energy_closed_form, energy_oracle, normalize,
                        position_wavefunction_quadrature,
                        position_wavefunction_hfox)

# exit code 3: a typed numerical failure, or a result beyond the double range
_CONVERGENCE_ERRORS = (NumericalFailure, OverflowError)


def _fmt(x):
    """12 significant digits, the package-wide reproducible format."""
    return f"{float(x):.11e}"


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _json_cell(v):
    if isinstance(v, float):
        return float(_fmt(v))
    return v


def _emit(rc, meta, header, rows, comments=()):
    if rc["format"] == "csv":
        buf = io.StringIO()
        for k, v in comments:
            buf.write(f"# {k} = {_csv_cell(v)}\n")
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_cell(v) for v in row])
        text = buf.getvalue()
    else:
        obj = {"meta": {k: _json_cell(v) for k, v in meta.items()},
               "rows": [{h: _json_cell(v) for h, v in zip(header, row)}
                        for row in rows]}
        text = json.dumps(obj, indent=2) + "\n"
    if rc["output"]:
        with open(rc["output"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_meta(rc, mode_fields=()):
    meta = {
        "mode": rc["mode"],
        "alpha": rc["alpha"],
        "lambda": rc["lam"],
        "gamma": rc["gamma"],
        "d_alpha": rc["d_alpha"],
        "hbar": rc["hbar"],
        "quad_rel_tol": rc["quad_rel_tol"],
        "quad_abs_tol": rc["quad_abs_tol"],
        "max_subdivisions": rc["max_subdivisions"],
        "version": __version__,
    }
    meta.update(mode_fields)
    return meta


def _quad(rc):
    return QuadSpec(abs_tol=rc["quad_abs_tol"], rel_tol=rc["quad_rel_tol"],
                    max_subdivisions=rc["max_subdivisions"])


def _config(rc):
    return PotentialConfig(alpha=rc["alpha"], d_alpha=rc["d_alpha"],
                           gamma_strength=rc["gamma"], hbar=rc["hbar"],
                           lam=rc["lam"])


# --- modes ------------------------------------------------------------------

def _energies(cfg, quad):
    """Closed-form and oracle bound states and their relative deviation."""
    ec = energy_closed_form(cfg)
    eo = energy_oracle(cfg, quad)
    return ec, eo, abs(ec.energy - eo.energy) / abs(eo.energy)


def run_energy(rc):
    ec, eo, rel = _energies(_config(rc), _quad(rc))
    header = ["E_closed_form", "E_oracle", "rel_deviation", "kappa"]
    rows = [[ec.energy, eo.energy, rel, ec.kappa]]
    _emit(rc, _base_meta(rc), header, rows)
    return 0


def run_wavefunction(rc):
    cfg = _config(rc)
    quad = _quad(rc)
    if rc["x_steps"] < 1:
        raise ValueError(f"x-steps must be at least 1, got {rc['x_steps']}")
    for flag, key in (("x-min", "x_min"), ("x-max", "x_max")):
        if not math.isfinite(rc[key]):
            raise ValueError(f"{flag} must be finite, got {rc[key]}")
    if rc["x_max"] < rc["x_min"]:
        raise ValueError("x-max must not be below x-min")
    st = normalize(energy_closed_form(cfg), cfg, quad)
    xs = np.linspace(rc["x_min"], rc["x_max"], rc["x_steps"])
    phi = position_wavefunction_quadrature(st, cfg, xs, quad)
    phi_hfox, verified = position_wavefunction_hfox(st, cfg, xs, quad)
    # one amplitude serves both routes, so rel_dev compares their values
    rows = [[float(x), pq, ph, abs(pq - ph) / max(abs(pq), 1e-300)]
            for x, pq, ph in zip(xs, phi, phi_hfox)]

    scalars = [("E", st.energy), ("kappa", st.kappa),
               ("normalization", st.amplitude), ("hfox_verified", verified)]
    header = ["x", "phi_quadrature", "phi_hfox", "rel_dev"]
    _emit(rc, _base_meta(rc, dict(scalars)), header, rows, comments=scalars)
    return 0


def _parse_grid(spec, flag):
    """start:stop:count makes a uniform grid, a,b,c is an explicit list."""
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            start, stop, count = float(start), float(stop), int(count)
            if count < 1:
                raise ValueError("count must be at least 1")
            if count > 1 and stop < start:
                raise ValueError("stop must not be below start")
            return [float(v) for v in np.linspace(start, stop, count)]
        return [float(v) for v in spec.split(",") if v.strip() != ""]
    except ValueError as e:
        raise ValueError(f"bad {flag} grid {spec!r}: {e}") from None


# the sweep axes in table order: (--sweep-* grid key, the field it varies)
_SWEEP_AXES = (("sweep_alpha", "alpha"), ("sweep_lambda", "lam"),
               ("sweep_gamma", "gamma"), ("sweep_d_alpha", "d_alpha"))


def run_sweep(rc):
    quad = _quad(rc)
    swept = [key for key, _ in _SWEEP_AXES if rc[key] is not None]
    if not swept:
        raise ValueError("sweep mode needs at least one --sweep-* grid")
    axes = [_parse_grid(rc[key], "--" + key.replace("_", "-"))
            if rc[key] is not None else [rc[field]]
            for key, field in _SWEEP_AXES]

    header = ["alpha", "lambda", "gamma", "d_alpha",
              "E_closed", "E_oracle", "rel_dev", "status"]
    rows = []
    for a, lam, g, d in itertools.product(*axes):
        try:
            cfg = PotentialConfig(alpha=a, d_alpha=d, gamma_strength=g,
                                  hbar=rc["hbar"], lam=lam)
            ec, eo, rel = _energies(cfg, quad)
            rows.append([a, lam, g, d, ec.energy, eo.energy, rel, "ok"])
        except DomainError:
            rows.append([a, lam, g, d, None, None, None, "domain_error"])
        except _CONVERGENCE_ERRORS:
            rows.append([a, lam, g, d, None, None, None, "convergence_error"])
    _emit(rc, _base_meta(rc, {"swept": swept}), header, rows)
    return 3 if rows and all(row[-1] != "ok" for row in rows) else 0


def run_validate(rc):
    # tolerances inside the suite are pinned on purpose: loosening the
    # user-facing quadrature flags must never turn a red check green
    results = checks.run_all()
    header = ["name", "passed", "measured", "tolerance", "detail"]
    rows = [[r.name, r.passed, r.measured, r.tolerance, r.detail]
            for r in results]
    n_pass = sum(r.passed for r in results)
    meta = _base_meta(rc, {"checks_passed": n_pass,
                           "checks_total": len(results)})
    _emit(rc, meta, header, rows)
    if n_pass != len(results):
        bad = ", ".join(r.name for r in results if not r.passed)
        print(f"validate: {len(results) - n_pass} of {len(results)} checks "
              f"failed: {bad}", file=sys.stderr)
        return 1
    return 0


def _parse_hfox(text):
    """m,n,p,q;a1:A1,...;b1:B1,... -> HFoxParams (see --help)."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(
            f"hfox spec needs 3 ';' separated fields, got {len(parts)}")
    try:
        m, n, p, q = (int(v) for v in parts[0].split(","))
    except ValueError:
        raise ValueError(f"bad hfox orders {parts[0]!r}") from None

    def pairs(block, what):
        if block.strip() == "":
            return ()
        out = []
        for item in block.split(","):
            try:
                left, right = item.split(":")
                out.append((float(left), float(right)))
            except ValueError:
                raise ValueError(f"bad {what} pair {item!r}") from None
        return tuple(out)

    upper = pairs(parts[1], "upper")
    lower = pairs(parts[2], "lower")
    if len(upper) != p or len(lower) != q:
        raise ValueError(
            f"declared orders p={p}, q={q} but got {len(upper)} upper and "
            f"{len(lower)} lower pairs")
    return HFoxParams(m=m, n=n, upper=upper, lower=lower)


def run_hfox_eval(rc):
    if rc["hfox"] is None:
        raise ValueError("hfox-eval mode needs --hfox \"m,n,p,q;a:A,...;b:B,...\"")
    params = _parse_hfox(rc["hfox"])
    zs = [float(v) for v in (rc["z"] or "1.0").split(",")]
    quad = _quad(rc)
    rows = []
    for z in zs:
        out = eval_auto(params, z, quad)
        rows.append([z, out.value, out.err_est, out.method])
    meta = _base_meta(rc, {"hfox": rc["hfox"]})
    _emit(rc, meta, ["z", "value", "err_est", "method"], rows)
    return 0


# --- argument handling --------------------------------------------------------

_MODES = {"energy": run_energy, "wavefunction": run_wavefunction,
          "sweep": run_sweep, "validate": run_validate,
          "hfox-eval": run_hfox_eval}

# flag name, also the config file key -> (argparse dest, converter, hard
# default, --help metavar); the parser and the config reader share it
_OPTIONS = {
    "mode": ("mode", str, None, None),
    "alpha": ("alpha", float, 2.0, None),
    "lambda": ("lam", float, 1.0, None),
    "d-alpha": ("d_alpha", float, 1.0, None),
    "gamma": ("gamma", float, 1.0, None),
    "hbar": ("hbar", float, 1.0, None),
    "x-min": ("x_min", float, -5.0, None),
    "x-max": ("x_max", float, 5.0, None),
    "x-steps": ("x_steps", int, 101, None),
    "sweep-alpha": ("sweep_alpha", str, None, "GRID"),
    "sweep-lambda": ("sweep_lambda", str, None, "GRID"),
    "sweep-gamma": ("sweep_gamma", str, None, "GRID"),
    "sweep-d-alpha": ("sweep_d_alpha", str, None, "GRID"),
    "output": ("output", str, None, "PATH"),
    "format": ("format", str, "csv", None),
    "quad-rel-tol": ("quad_rel_tol", float, 1e-8, None),
    "quad-abs-tol": ("quad_abs_tol", float, 1e-10, None),
    "max-subdivisions": ("max_subdivisions", int, 2000, None),
    "hfox": ("hfox", str, None, "SPEC"),
    "z": ("z", str, None, "Z1,Z2,..."),
}

# the options with a fixed set of values, from a flag or a config file
_CHOICES = {"mode": sorted(_MODES), "format": ["csv", "json"]}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="fracwell",
        description="Bound state of a delta well in fractional-dimensional "
                    "space: energies, wavefunctions, H-function evaluation.",
        epilog="H parameter syntax: --hfox \"m,n,p,q;a1:A1,...;b1:B1,...\" "
               "with ';' separating orders, upper pairs, lower pairs "
               "(empty field for p=0). Example: --hfox \"1,0,0,1;;0:1\" "
               "--z 1.0 evaluates exp(-z) at z=1. Config files hold "
               "'key = value' lines ('#' comments) keyed by these flag "
               "names without dashes; explicit flags win.")
    for key, (dest, conv, _, metavar) in _OPTIONS.items():
        p.add_argument("--" + key, dest=dest, type=conv, metavar=metavar,
                       choices=_CHOICES.get(key))
        if key == "mode":   # --help lists --config second
            p.add_argument("--config", metavar="FILE")
    return p


# built once, at import: parse_args keeps no state between calls
_PARSER = _build_parser()


def _read_config(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip().lower().replace("_", "-")
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = val.strip()
    return out


def _resolve(args):
    file_vals = {}
    if args.config is not None:
        file_vals = _read_config(args.config)
    rc = {}
    for key, (dest, conv, default, _) in _OPTIONS.items():
        cli_val = getattr(args, dest)
        if cli_val is not None:
            rc[dest] = cli_val
        elif key in file_vals:
            try:
                rc[dest] = conv(file_vals[key])
            except ValueError:
                raise ValueError(
                    f"config value for {key!r} is not a valid "
                    f"{conv.__name__}: {file_vals[key]!r}") from None
        else:
            rc[dest] = default
    if rc["mode"] is None:
        raise ValueError("no --mode given (and none in the config file)")
    for key, allowed in _CHOICES.items():
        if rc[key] not in allowed:
            raise ValueError(f"unknown {key} {rc[key]!r}")
    return rc


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:         # argparse already printed the message
        return int(e.code or 0)
    try:
        rc = _resolve(args)
        return _MODES[rc["mode"]](rc)
    except (ValueError, OSError, DomainError) as e:
        print(f"fracwell: error: {e}", file=sys.stderr)
        return 2
    except _CONVERGENCE_ERRORS as e:
        print(f"fracwell: convergence failure: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
