"""Command-line surface: coefficient tables, transform evaluation, the
verification suite and parameter sweeps, emitted as CSV or JSON.

Usage:
    jacobiflow coeffs   --kappa 0.5 --t 1.0 --n 8 --format csv
    jacobiflow verify   --kappa 0.5 --t 1.0 --level full
    jacobiflow integral --kappa 0.5 --t 1.0 --z 0.03,0.0 --form corollary
    jacobiflow sweep    --kappa 0.0,0.5 --t 0.5,1.0 --n 8 --out tables/

Floats are printed with 17 significant digits so every value round-trips
to the exact binary64 bit pattern; identical inputs give byte-identical
output.

Config-file values are parsed as flags placed before the user's own, and
``main`` alone maps exceptions to exit codes: 0 success, 1 verification
failure or unwritable output, 2 no admissible contour, 3 numerical failure
(a solver did not converge), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache
from pathlib import Path

from . import contour, flow, maps
from .contour import NoAdmissibleContourError
from .powerseries import MAX_ORDER
from .verify import run_checks

USAGE_EXIT = 64
CONTOUR_EXIT = 2
NUMERICAL_EXIT = 3
# config-file key -> argument it fills
CONFIG_KEYS = {"kappa": "kappa", "t": "t", "n_max": "n", "format": "format"}
FORMATS = ("csv", "json")
# a value such as -1e-3, -0.5,0.5 or -inf, which argparse reads as an option
_NEGATIVE_VALUE = re.compile(r"-([0-9.]|inf|nan)", re.IGNORECASE)


def _num(x: float) -> str:
    return f"{float(x):.17g}"


def _json(value) -> str:
    """Compact JSON, keys in insertion order, floats with 17 significant digits."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(_json, value)) + "]"
    if isinstance(value, float):
        return _num(value)
    return json.dumps(value)


def _csv(rows: list[dict]) -> str:
    """Header from the first record's keys, one line per record.  Every
    record has the first one's value types, so one %-format, ``%.17g`` for
    a float (as ``_num``) and ``%s`` for anything else, makes every line."""
    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0].values()) + "\n"
    return ",".join(rows[0]) + "\n" + "".join([line % tuple(row.values()) for row in rows])


def _write(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def _usage_fail(message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(USAGE_EXIT)


def _parse_config(text: str) -> dict:
    opts = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in CONFIG_KEYS:
            _usage_fail(
                f"config line {lineno}: expected key=value with key in {tuple(CONFIG_KEYS)}"
            )
        opts[key] = value.strip()
    return opts


def _parse_reals(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        _usage_fail(f"{flag} expects comma-separated reals, got {text!r}")
    if not values:
        _usage_fail(f"{flag} expects at least one value")
    return values


def _check_params(kappa: float, t: float, n: int | None = None) -> flow.FlowParams:
    try:
        params = flow.FlowParams(kappa, t)
        if n is not None:
            flow._check_order(n)
    except ValueError as exc:
        _usage_fail(str(exc))
    return params


# -- table construction --------------------------------------------------------


def _table_rows(kappa: float, t: float, n_max: int) -> list[dict]:
    rows = flow._coeff_rows(flow.FlowParams(kappa, t), n_max)
    # M_n = n (S_n / n) = S_n, rounded once
    return [{"n": n, "a_n": a_n, "b_n": b_n, "S_n": s_n, "phi_inv": inv, "M": s_n}
            for n, (a_n, b_n, s_n, inv) in enumerate(rows, start=1)]


def _render_table(kappa: float, t: float, n_max: int, fmt: str) -> str:
    rows = _table_rows(kappa, t, n_max)
    if fmt == "json":
        return _json({"params": {"kappa": kappa, "t": t}, "rows": rows, "version": 1}) + "\n"
    return _csv(rows)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        _write(out, text)


# -- subcommands ----------------------------------------------------------------


def _cmd_coeffs(args) -> int:
    _check_params(args.kappa, args.t, args.n)
    _emit(_render_table(args.kappa, args.t, args.n, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    _check_params(args.kappa, args.t)
    report = run_checks(args.kappa, args.t, args.level)
    if args.format == "json":
        text = json.dumps(report.to_dict()) + "\n"
    else:
        text = report.format() + "\n"
    _emit(text, args.out)
    return 0 if report.passed else 1


def _cmd_integral(args) -> int:
    kappa, t = args.kappa, args.t
    params = _check_params(kappa, t)
    parts = _parse_reals(args.z, "--z")
    if len(parts) > 2:
        _usage_fail(f"--z expects re[,im], got {args.z!r}")
    z = complex(parts[0], parts[1] if len(parts) == 2 else 0.0)
    if not abs(z) < 1:
        _usage_fail(f"z must lie in the open unit disc, got {z}")

    if kappa == 0.0:
        value, form, radius, samples, residual = maps.m_zero(t, z), "closed", 0.0, 0, 0.0
    else:
        res = contour.m_integral_detailed(params, z)
        form, radius, samples = args.form, res.contour.radius, res.samples
        value, residual = getattr(res, form), abs(res.corollary - res.proposition)
    record = {
        "value_re": value.real,
        "value_im": value.imag,
        "form": form,
        "radius": radius,
        "samples": samples,
        "forms_residual": residual,
    }
    text = _json(record) + "\n" if args.format == "json" else _csv([record])
    _emit(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    kappas = _parse_reals(args.kappa, "--kappa")
    ts = _parse_reals(args.t, "--t")
    for kap in kappas:
        for t in ts:
            _check_params(kap, t, args.n)
    if args.out is None:
        _usage_fail("sweep needs --out DIR")

    points = []
    seen = set()
    for kap in kappas:
        for t in ts:
            key = (_num(kap), _num(t))
            if key in seen:
                sys.stderr.write(f"warning: duplicate grid point kappa={key[0]} t={key[1]} skipped\n")
                continue
            seen.add(key)
            points.append((kap, t))

    outdir = Path(args.out)
    ext = "json" if args.format == "json" else "csv"
    entries = [{"index": index, "kappa": kap, "t": t, "path": f"table_{index:03d}.{ext}"}
               for index, (kap, t) in enumerate(points)]
    outdir.mkdir(parents=True, exist_ok=True)
    # t-major, so each t-table is built once; files keep their grid-order names
    for e in sorted(entries, key=lambda entry: entry["t"]):
        _write(outdir / e["path"], _render_table(e["kappa"], e["t"], args.n, args.format))
    manifest = {"entries": entries, "n_max": args.n, "version": 1}
    _write(outdir / "manifest.json", _json(manifest) + "\n")
    return 0


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="jacobiflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True, real=float):
        p.add_argument("--kappa", type=real, help="trace asymmetry in (-1, 1)")
        p.add_argument("--t", type=real, help="time parameter, positive")
        if with_n:
            p.add_argument("--n", type=int, default=16,
                           help=f"table order, 1..{MAX_ORDER} (default 16)")
        p.add_argument("--format", choices=FORMATS, default="csv",
                       help="output format (default csv)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="key=value config file (flags override)")

    p = sub.add_parser("coeffs", help="coefficient table a_n, b_n, S_n, inverted-flow, M")
    common(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    common(p, with_n=False)
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("integral", help="contour-integral value of the derivative series")
    common(p, with_n=False)
    p.add_argument("--z", required=True, help="evaluation point re[,im]")
    p.add_argument("--form", choices=("proposition", "corollary"), default="corollary")
    p.set_defaults(func=_cmd_integral)

    p = sub.add_parser("sweep", help="tables over a (kappa, t) grid plus manifest")
    common(p, real=str)  # comma lists, parsed by _cmd_sweep
    p.set_defaults(func=_cmd_sweep)
    return parser


def _glue_values(argv: list[str]) -> list[str]:
    """--flag -1e-3 as --flag=-1e-3: every flag but --help takes one value."""
    glued = []
    for word in argv:
        prev = glued[-1] if glued else ""
        if (prev.startswith("--") and "=" not in prev and prev != "--help"
                and _NEGATIVE_VALUE.match(word)):
            glued[-1] = f"{prev}={word}"
        else:
            glued.append(word)
    return glued


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _glue_values(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    if args.config:
        try:
            config = _parse_config(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            _usage_fail(f"cannot read config file: {exc}")
        # after the subcommand and before the user's flags, which thus win
        tokens = [f"--{dest}={config[key]}" for key, dest in CONFIG_KEYS.items()
                  if key in config and hasattr(args, dest)]
        args = parser.parse_args(argv[:1] + tokens + argv[1:])
    if args.kappa is None or args.t is None:
        _usage_fail("--kappa and --t are required (flag or config file)")
    try:
        return args.func(args)
    except NoAdmissibleContourError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CONTOUR_EXIT
    except (maps.ConvergenceError, contour.QuadratureError) as exc:
        sys.stderr.write(f"error: numerical failure: {exc}\n")
        return NUMERICAL_EXIT
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.out}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
