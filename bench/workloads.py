"""The four workloads: the stored input pool, the seeded list of operations
drawn from it, and the checks of each operation's output.

Every operation is one call of ``jacobiflow.cli.main(argv)`` in the
benchmark's process.  Table columns are checked against the stored mpmath
reference (see ``reference.py``), integral values against the stored mpmath
M(z), and ``verify`` by its own exit code and overall verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
POOL_PATH = BENCH / "pool.json"
REFERENCE_PATH = BENCH / "reference.json"

WORKLOADS = ("table", "sweep", "integral", "verify")
TABLE_ORDER = 48
SWEEP_ORDER = 24
COLUMNS = ("a_n", "b_n", "S_n", "phi_inv", "M")
ULP_COLUMNS = ("b_n", "M")  # rounded twice by the program: 1 ulp allowed, misses counted
CONTOUR_EXIT = 2  # the CLI's exit code for "no admissible circle"
M_TOL = 1e-12  # |integral value - M(z)| / max(1, |M(z)|)
FORMS_TOL = 1e-9  # |corollary - proposition|, the tolerance of verify's m-integral-forms-agree


def load_program():
    """Import jacobiflow.cli from the checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    if not (src / "jacobiflow" / "cli.py").is_file():
        sys.exit(f"error: no jacobiflow sources under {src}")
    sys.path.insert(0, str(src))
    from jacobiflow import cli

    if Path(cli.__file__).resolve().parent != (src / "jacobiflow").resolve():
        sys.exit(f"error: imported jacobiflow from {cli.__file__}, not from {src}")
    return cli


def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in this process; returns (exit code, stdout, stderr).

    An exception that escapes the CLI counts as exit code 1, which is what
    the interpreter would report for a command-line run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the CLI's boundary: report, do not stop the run
            err.write(f"{type(exc).__name__}: {exc}\n")
            code = 1
    return code, out.getvalue(), err.getvalue()


# -- operations --------------------------------------------------------------


@dataclass
class Op:
    argv: list[str]
    entry: dict


def warmup_argv(workload: str, scratch: Path) -> list[str] | None:
    """One untimed call at inputs no operation uses (kappa = 0 or t = 0.5 or
    t = 1, which the pool excludes).  It fills the parameter-free pnm_poly
    cache for table and sweep; verify needs none."""
    if workload == "table":
        return ["coeffs", "--kappa", "0", "--t", "0.5", "--n", str(TABLE_ORDER)]
    if workload == "sweep":
        return ["sweep", "--kappa", "0", "--t", "0.5", "--n", str(SWEEP_ORDER),
                "--out", str(scratch / "warmup")]
    if workload == "integral":
        return ["integral", "--kappa", "0.5", "--t", "1", "--z", "0.3"]
    return None


def op_argv(workload: str, entry: dict, outdir: Path) -> list[str]:
    if workload == "table":
        return ["coeffs", "--kappa", entry["kappa"], "--t", entry["t"], "--n", str(TABLE_ORDER)]
    if workload == "sweep":
        return ["sweep", "--kappa", ",".join(entry["kappas"]), "--t", ",".join(entry["ts"]),
                "--n", str(SWEEP_ORDER), "--out", str(outdir)]
    if workload == "integral":
        return ["integral", "--kappa", entry["kappa"], "--t", entry["t"], "--z", entry["z"]]
    return ["verify", "--kappa", entry["kappa"], "--t", entry["t"], "--level", "full"]


def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text(encoding="utf-8"))


def operations(workload: str, seed: int, seconds: int, pool: dict, scratch: Path) -> list[Op]:
    """The run's fixed list: whole rounds, each taking one entry from every
    stratum of the pool, in a seeded order.

    The number of rounds is set by --seconds and the round time measured
    when the pool was made, so a run is a fixed amount of work, not a time
    box: a faster program finishes sooner, and two runs with one seed do
    identical work.  Entries are drawn without replacement until a stratum
    is used up, so within a run no parameter pair repeats.
    """
    spec = pool[workload]
    rng = random.Random(f"{workload}:{seed}")
    strata = [rng.sample(entries, len(entries)) for entries in spec["strata"]]
    rounds = max(1, round(seconds / spec["round_s"]))
    ops = []
    for r in range(rounds):
        batch = [stratum[r % len(stratum)] for stratum in strata]
        rng.shuffle(batch)
        for entry in batch:
            outdir = scratch / f"op{len(ops):03d}"
            ops.append(Op(op_argv(workload, entry, outdir), entry))
    return ops


# -- reference ---------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def table_columns(a_digits: list[str], s_digits: list[str]) -> list[dict]:
    """Correctly rounded CLI table columns from the stored decimal digits of
    a_n and S_n: each value is formed exactly over the rationals and rounded
    to binary64 once, with b_n = n 4^n a_n, phi_inv = S_n / n and M = S_n."""
    rows = []
    for n, (a_text, s_text) in enumerate(zip(a_digits, s_digits), start=1):
        a, s = Fraction(a_text), Fraction(s_text)
        rows.append({"n": n, "a_n": float(a), "b_n": float(a * n * 4**n),
                     "S_n": float(s), "phi_inv": float(s / n), "M": float(s)})
    return rows


def coeff_key(kappa: str, t: str) -> str:
    return f"{kappa} {t}"


def parse_z(text: str) -> complex:
    re, im = (float(part) for part in text.split(","))
    return complex(re, im)


def integral_key(entry: dict) -> str:
    return f"{entry['kappa']} {entry['t']} {entry['z']}"


# -- checks ------------------------------------------------------------------


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    misrounded: int = 0


def check_table(text: str, want: list[dict], label: str, verdict: Verdict):
    lines = text.splitlines()
    if not lines or lines[0] != "n," + ",".join(COLUMNS):
        verdict.problems.append(f"{label}: unexpected table header")
        return
    if len(lines) - 1 != len(want):
        verdict.problems.append(f"{label}: {len(lines) - 1} rows, expected {len(want)}")
        return
    for line, ref in zip(lines[1:], want):
        fields = line.split(",")
        if int(fields[0]) != ref["n"]:
            verdict.problems.append(f"{label}: row {fields[0]} out of order")
            continue
        for col, text_value in zip(COLUMNS, fields[1:]):
            got, exp = float(text_value), ref[col]
            if got == exp:
                continue
            if col in ULP_COLUMNS and got in (math.nextafter(exp, math.inf),
                                              math.nextafter(exp, -math.inf)):
                verdict.misrounded += 1
            else:
                verdict.problems.append(f"{label}: {col}[{ref['n']}] = {got!r}, reference {exp!r}")


def _coeff_rows(reference: dict, order: int, kappa: str, t: str) -> list[dict]:
    a_digits, s_digits = reference["coeffs"][str(order)][coeff_key(kappa, t)]
    return table_columns(a_digits.split(), s_digits.split())


def check(workload: str, op: Op, stdout: str, reference: dict, verdict: Verdict):
    """Append every disagreement of one successful operation to the verdict."""
    e = op.entry
    if workload == "table":
        want = _coeff_rows(reference, TABLE_ORDER, e["kappa"], e["t"])
        check_table(stdout, want, f"coeffs {e['kappa']} {e['t']}", verdict)
    elif workload == "sweep":
        outdir = Path(op.argv[op.argv.index("--out") + 1])
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        grid = [(k, t) for k in e["kappas"] for t in e["ts"]]
        entries = manifest.get("entries", [])
        if manifest.get("n_max") != SWEEP_ORDER or len(entries) != len(grid):
            verdict.problems.append(f"sweep {e}: manifest does not match the grid")
            return
        for item, (k, t) in zip(entries, grid):
            if (item["kappa"], item["t"]) != (float(k), float(t)):
                verdict.problems.append(f"sweep {e}: manifest entry {item} is not ({k}, {t})")
                continue
            text = (outdir / item["path"]).read_text(encoding="utf-8")
            want = _coeff_rows(reference, SWEEP_ORDER, k, t)
            check_table(text, want, f"sweep {k} {t}", verdict)
    elif workload == "integral":
        header, values = (line.split(",") for line in stdout.splitlines()[:2])
        fields = dict(zip(header, values))
        got = complex(float(fields["value_re"]), float(fields["value_im"]))
        m_re, m_im = reference["m"][integral_key(e)].split()
        want = complex(float(m_re), float(m_im))
        if abs(got - want) > M_TOL * max(1.0, abs(want)):
            verdict.problems.append(f"integral {e['z']}: M = {got}, reference {want}")
        if not float(fields["forms_residual"]) <= FORMS_TOL:
            verdict.problems.append(f"integral {e['z']}: forms_residual {fields['forms_residual']}")
    else:
        lines = stdout.splitlines()
        if not lines or not lines[-1].startswith("PASS  overall"):
            verdict.problems.append(f"verify {e['kappa']} {e['t']}: no overall PASS")
