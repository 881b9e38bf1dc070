"""Quick self-test: the mpmath reference, computed afresh, agrees with the
program on a small case (a table up to n = 12 and one integral point).

    python3 bench/selftest.py        # a few seconds; exit 0 when they agree
"""

from __future__ import annotations

import sys

import reference
import workloads as W

TABLE = ("0.3", "0.7", 12)
POINT = {"kappa": "0.12", "t": "1.36", "z": "0.78,0.0"}


def main() -> int:
    cli = W.load_program()
    verdict = W.Verdict()

    kappa, t, n = TABLE
    code, out, err = W.call_cli(cli.main, ["coeffs", "--kappa", kappa, "--t", t, "--n", str(n)])
    if code != 0:
        verdict.problems.append(f"coeffs exited {code}: {err.strip()}")
    else:
        want = W.table_columns(*reference.coefficients(float(kappa), float(t), n))
        W.check_table(out, want, f"coeffs {kappa} {t}", verdict)
    print(f"table kappa={kappa} t={t} n<={n}: {len(verdict.problems)} disagreements, "
          f"{verdict.misrounded} b_n/M values 1 ulp off")

    argv = W.op_argv("integral", POINT, W.RESULTS)
    code, out, err = W.call_cli(cli.main, argv)
    if code != 0:
        verdict.problems.append(f"integral exited {code}: {err.strip()}")
    else:
        m = reference.m_value(float(POINT["kappa"]), float(POINT["t"]), W.parse_z(POINT["z"]))
        stored = {"m": {W.integral_key(POINT): f"{m.real!r} {m.imag!r}"}}
        W.check("integral", W.Op(argv, POINT), out, stored, verdict)
        print(f"integral {POINT}: reference M = {m}")

    for problem in verdict.problems:
        print(f"FAIL {problem}")
    print("PASS" if not verdict.problems else "FAIL")
    return 0 if not verdict.problems else 1


if __name__ == "__main__":
    sys.exit(main())
