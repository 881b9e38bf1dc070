"""Command-line surface: coefficient tables, transform evaluation, the
verification suite and parameter sweeps, emitted as CSV or JSON.

Usage:
    jacobiflow coeffs   --kappa 0.5 --t 1.0 --n 8 --format csv
    jacobiflow verify   --kappa 0.5 --t 1.0 --level full
    jacobiflow integral --kappa 0.5 --t 1.0 --z 0.03,0.0 --form corollary
    jacobiflow sweep    --kappa 0.0,0.5 --t 0.5,1.0 --n 8 --out tables/

Floats are printed with 17 significant digits so every value round-trips
to the exact binary64 bit pattern; identical inputs give byte-identical
output regardless of the --jobs setting.

Exit codes: 0 success, 1 verification failure, 2 no admissible contour,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import contour, flow, maps
from .contour import NoAdmissibleContourError
from .verify import run_checks

USAGE_EXIT = 64
CONTOUR_EXIT = 2
MAX_TABLE_ORDER = 64
CONFIG_KEYS = ("kappa", "t", "n_max", "format")


def _num(x: float) -> str:
    return f"{float(x):.17g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def _usage_fail(message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(USAGE_EXIT)


def _load_config(path: str) -> dict:
    opts = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _usage_fail(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in CONFIG_KEYS:
            _usage_fail(f"config line {lineno}: expected key=value with key in {CONFIG_KEYS}")
        opts[key] = value.strip()
    return opts


def _merge(args, config: dict):
    """Command-line flags override config-file values."""
    if args.kappa is None and "kappa" in config:
        args.kappa = config["kappa"]
    if args.t is None and "t" in config:
        args.t = config["t"]
    if getattr(args, "n", None) is None and "n_max" in config:
        args.n = config["n_max"]
    if getattr(args, "format", None) is None and "format" in config:
        args.format = config["format"]


def _parse_reals(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        _usage_fail(f"{flag} expects comma-separated reals, got {text!r}")
    if not values:
        _usage_fail(f"{flag} expects at least one value")
    return values


def _check_params(kappa: float, t: float, n: int | None = None):
    if not -1 < kappa < 1:
        _usage_fail(f"kappa must lie in (-1, 1), got {kappa}")
    if not t > 0:
        _usage_fail(f"t must be positive, got {t}")
    if n is not None and not 1 <= n <= MAX_TABLE_ORDER:
        _usage_fail(f"n must lie in [1, {MAX_TABLE_ORDER}], got {n}")


# -- table construction --------------------------------------------------------


def _table_rows(kappa: float, t: float, n_max: int) -> list[dict]:
    params = flow.FlowParams(kappa, t)
    inv = flow.phi_inv_coeffs(params, n_max)
    rows = []
    for n in range(1, n_max + 1):
        s_n = flow.s_coeff(params, n)  # M_n = n (S_n / n) = S_n, rounded once
        rows.append(
            {
                "n": n,
                "a_n": flow.a_coeff(params, n),
                "b_n": flow.b_coeff(params, n),
                "S_n": s_n,
                "phi_inv": inv.coeffs[n],
                "M": s_n,
            }
        )
    return rows


_COLUMNS = ("a_n", "b_n", "S_n", "phi_inv", "M")


def _format_csv(rows: list[dict]) -> str:
    lines = ["n," + ",".join(_COLUMNS)]
    for r in rows:
        lines.append(",".join([str(r["n"])] + [_num(r[c]) for c in _COLUMNS]))
    return "\n".join(lines) + "\n"


def _format_json(kappa: float, t: float, rows: list[dict]) -> str:
    row_text = ",".join(
        "{"
        + f'"n":{r["n"]},'
        + ",".join(f'"{c}":{_num(r[c])}' for c in _COLUMNS)
        + "}"
        for r in rows
    )
    return (
        f'{{"params":{{"kappa":{_num(kappa)},"t":{_num(t)}}},'
        f'"rows":[{row_text}],"version":1}}\n'
    )


def _render_table(kappa: float, t: float, n_max: int, fmt: str) -> str:
    rows = _table_rows(kappa, t, n_max)
    if fmt == "json":
        return _format_json(kappa, t, rows)
    return _format_csv(rows)


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {out}: {exc}\n")
        return 1
    return 0


# -- subcommands ----------------------------------------------------------------


def _cmd_coeffs(args) -> int:
    kappa, t, n = float(args.kappa), float(args.t), int(args.n)
    _check_params(kappa, t, n)
    return _emit(_render_table(kappa, t, n, args.format), args.out)


def _cmd_verify(args) -> int:
    kappa, t = float(args.kappa), float(args.t)
    _check_params(kappa, t)
    report = run_checks(kappa, t, args.level)
    if args.format == "json":
        text = json.dumps(report.to_dict()) + "\n"
    else:
        text = report.format() + "\n"
    if _emit(text, args.out):
        return 1
    return 0 if report.passed else 1


def _cmd_integral(args) -> int:
    kappa, t = float(args.kappa), float(args.t)
    _check_params(kappa, t)
    parts = _parse_reals(args.z, "--z")
    if len(parts) > 2:
        _usage_fail(f"--z expects re[,im], got {args.z!r}")
    z = complex(parts[0], parts[1] if len(parts) == 2 else 0.0)
    if abs(z) >= 1:
        _usage_fail(f"z must lie in the open unit disc, got {z}")

    if kappa == 0.0:
        value = maps.m_zero(t, z)
        fields = {
            "value_re": _num(value.real),
            "value_im": _num(value.imag),
            "form": "closed",
            "radius": _num(0.0),
            "samples": "0",
            "forms_residual": _num(0.0),
        }
    else:
        params = flow.FlowParams(kappa, t)
        try:
            main = contour.m_integral_detailed(params, z, args.form)
            other_form = "proposition" if args.form == "corollary" else "corollary"
            other = contour.m_integral_detailed(params, z, other_form, spec=main.contour)
        except NoAdmissibleContourError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return CONTOUR_EXIT
        fields = {
            "value_re": _num(main.value.real),
            "value_im": _num(main.value.imag),
            "form": main.form,
            "radius": _num(main.contour.radius),
            "samples": str(main.samples),
            "forms_residual": _num(abs(main.value - other.value)),
        }

    if args.format == "json":
        body = ",".join(
            f'"{k}":{v}' if k not in ("form",) else f'"{k}":"{v}"'
            for k, v in fields.items()
        )
        text = "{" + body + "}\n"
    else:
        text = ",".join(fields) + "\n" + ",".join(fields.values()) + "\n"
    return _emit(text, args.out)


def _cmd_sweep(args) -> int:
    kappas = _parse_reals(args.kappa, "--kappa")
    ts = _parse_reals(args.t, "--t")
    n = int(args.n)
    for kap in kappas:
        for t in ts:
            _check_params(kap, t, n)
    if args.jobs < 1:
        _usage_fail(f"--jobs must be >= 1, got {args.jobs}")

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

    fmt = args.format
    if args.jobs == 1:
        tables = [_render_table(kap, t, n, fmt) for kap, t in points]
    else:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            tables = list(pool.map(lambda pt: _render_table(pt[0], pt[1], n, fmt), points))

    outdir = Path(args.out)
    ext = "json" if fmt == "json" else "csv"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        names = []
        for index, text in enumerate(tables):
            name = f"table_{index:03d}.{ext}"
            with open(outdir / name, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            names.append(name)
        entries = ",".join(
            f'{{"index":{i},"kappa":{_num(kap)},"t":{_num(t)},"path":"{name}"}}'
            for i, ((kap, t), name) in enumerate(zip(points, names))
        )
        manifest = f'{{"entries":[{entries}],"n_max":{n},"version":1}}\n'
        with open(outdir / "manifest.json", "w", encoding="utf-8", newline="\n") as handle:
            handle.write(manifest)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write to {args.out}: {exc}\n")
        return 1
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="jacobiflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        p.add_argument("--kappa", help="trace asymmetry in (-1, 1)")
        p.add_argument("--t", help="time parameter, positive")
        if with_n:
            p.add_argument("--n", help=f"table order, 1..{MAX_TABLE_ORDER} (default 16)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
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
    common(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel grid evaluations")
    p.set_defaults(func=_cmd_sweep, multi=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.config:
        _merge(args, _load_config(args.config))
    if args.kappa is None or args.t is None:
        _usage_fail("--kappa and --t are required (flag or config file)")
    if not getattr(args, "multi", False):  # sweep parses its own comma lists
        try:
            args.kappa = float(args.kappa)
            args.t = float(args.t)
        except ValueError:
            _usage_fail(f"kappa and t must be reals, got {args.kappa!r}, {args.t!r}")
    if hasattr(args, "n"):
        if args.n is None:
            args.n = 16
        try:
            args.n = int(args.n)
        except ValueError:
            _usage_fail(f"n must be an integer, got {args.n!r}")
    if getattr(args, "format", None) is None:
        args.format = "csv"
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
