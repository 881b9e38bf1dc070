"""Make the benchmark's input pool (pool.json) and its mpmath reference
(reference.json) anew.

    python3 bench/make_pool.py        # about ten minutes on 2 cores

Inputs are drawn with a fixed seed.  Every operation is run once with the
program, to measure its cost (the strata and the round times in pool.json
come from these measurements) and to keep only inputs the program accepts:
integral points with an admissible circle most of whose nodes are far
points (|y| > 0.5), and verify pairs that pass.  Every output is checked
as a run checks it, table, sweep and integral outputs against the
reference just computed; a disagreement, or a failure of any other kind,
stops the script: a fault is reported, never filtered out.
"""

from __future__ import annotations

import cmath
import json
import random
import shutil
import statistics
import sys
import time

import reference
import workloads as W

SEED = 1502_00013
TABLE_STRATA, TABLE_PER_STRATUM = 4, 8
SWEEP_PER_STRATUM = 6
INTEGRAL_STRATA, INTEGRAL_PER_STRATUM = 4, 10
VERIFY_STRATA, VERIFY_PER_STRATUM = 2, 8


def log(message: str):
    print(message, file=sys.stderr, flush=True)


def decimals(lo: float, hi: float) -> list[str]:
    """Two-decimal inputs in [lo, hi] that are not dyadic (multiples of 1/4),
    so their doubles carry a full 53-bit mantissa."""
    return [str(k / 100) for k in range(round(lo * 100), round(hi * 100) + 1) if k % 25]


def timed(main, argv):
    start = time.perf_counter()
    code, out, err = W.call_cli(main, argv)
    cost = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.strip()}")
    return out, round(cost, 3)


def stored(digits) -> list[str]:
    """The reference's (a_n, S_n) digit lists as kept in reference.json."""
    return [" ".join(column) for column in digits]


def require(workload, argv, entry, out, reference):
    verdict = W.Verdict()
    W.check(workload, W.Op(argv, entry), out, reference, verdict)
    if verdict.problems:
        raise RuntimeError("; ".join(verdict.problems))


def by_cost(entries: list[dict], strata: int) -> list[list[dict]]:
    ordered = sorted(entries, key=lambda e: e["cost_s"])
    size = len(ordered) // strata
    return [ordered[i * size:(i + 1) * size] for i in range(strata)]


def round_seconds(strata: list[list[dict]]) -> float:
    return round(sum(statistics.mean(e["cost_s"] for e in s) for s in strata), 3)


def make_table(rng, main, scratch, refs):
    W.call_cli(main, W.warmup_argv("table", scratch))
    n = TABLE_STRATA * TABLE_PER_STRATUM
    pairs = zip(rng.sample(decimals(0.05, 0.95), n), rng.sample(decimals(0.1, 2.49), n))
    dyadic_k = [str(k / 16) for k in range(1, 16)]
    dyadic_t = [str(k / 8) for k in range(1, 21) if k not in (4, 8)]  # not 0.5 or 1
    dyadic = zip(rng.sample(dyadic_k, TABLE_PER_STRATUM), rng.sample(dyadic_t, TABLE_PER_STRATUM))
    decimal_entries, dyadic_entries = [], []
    for group, out in ((pairs, decimal_entries), (dyadic, dyadic_entries)):
        for kappa, t in group:
            entry = {"kappa": kappa, "t": t}
            argv = W.op_argv("table", entry, scratch)
            text, entry["cost_s"] = timed(main, argv)
            out.append(entry)
            log(f"table {kappa} {t}: {entry['cost_s']} s")
            refs[W.coeff_key(kappa, t)] = stored(
                reference.coefficients(float(kappa), float(t), W.TABLE_ORDER))
            require("table", argv, entry, text, {"coeffs": {str(W.TABLE_ORDER): refs}})
    strata = by_cost(decimal_entries, TABLE_STRATA) + [dyadic_entries]
    return {"order": W.TABLE_ORDER, "round_s": round_seconds(strata), "strata": strata}


def make_sweep(rng, main, scratch, refs):
    W.call_cli(main, W.warmup_argv("sweep", scratch))
    shapes = (2, 2, 1)  # t values per grid in each stratum: two grids of 3x2, one of 3x1
    ts = iter(rng.sample(decimals(0.1, 2.49), SWEEP_PER_STRATUM * sum(shapes)))
    kappas = decimals(0.05, 0.95)
    strata = []
    for n_t in shapes:
        stratum = []
        for _ in range(SWEEP_PER_STRATUM):
            entry = {"kappas": rng.sample(kappas, 3), "ts": [next(ts) for _ in range(n_t)]}
            argv = W.op_argv("sweep", entry, scratch / "sweep")
            _, entry["cost_s"] = timed(main, argv)
            stratum.append(entry)
            log(f"sweep {entry['kappas']} x {entry['ts']}: {entry['cost_s']} s")
            for kappa in entry["kappas"]:
                for t in entry["ts"]:
                    refs[W.coeff_key(kappa, t)] = stored(
                        reference.coefficients(float(kappa), float(t), W.SWEEP_ORDER))
            require("sweep", argv, entry, "", {"coeffs": {str(W.SWEEP_ORDER): refs}})
            shutil.rmtree(scratch / "sweep")
        strata.append(stratum)
    return {"order": W.SWEEP_ORDER, "round_s": round_seconds(strata), "strata": strata}


def far_share(kappa: float, z: complex, radius: float) -> float:
    """Share of the contour's nodes whose kernel argument y lies beyond |y| = 0.5."""
    from jacobiflow.maps import y_func  # importable only after W.load_program()

    nodes = [kappa + radius * cmath.exp(2j * cmath.pi * j / 256) for j in range(256)]
    return sum(abs(y_func(z, w)) > 0.5 for w in nodes) / 256


def make_integral(rng, main, scratch, refs):
    W.call_cli(main, W.warmup_argv("integral", scratch))
    kappas = decimals(0.05, 0.35)
    wanted = INTEGRAL_STRATA * INTEGRAL_PER_STRATUM
    entries = []
    for t in rng.sample(decimals(0.1, 2.49), len(decimals(0.1, 2.49))):
        if len(entries) == wanted:
            break
        re, im = rng.randint(50, 95) / 100, rng.randint(-30, 30) / 100
        entry = {"kappa": rng.choice(kappas), "t": t, "z": f"{re},{im}"}
        argv = W.op_argv("integral", entry, scratch)
        start = time.perf_counter()
        code, out, err = W.call_cli(main, argv)
        cost = round(time.perf_counter() - start, 3)
        if code == W.CONTOUR_EXIT:  # the analytic obstruction: no admissible circle
            continue
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.strip()}")
        fields = dict(zip(*(line.split(",") for line in out.splitlines()[:2])))
        share = far_share(float(entry["kappa"]), complex(re, im), float(fields["radius"]))
        if share < 0.5:
            continue
        entry.update(cost_s=cost, far_share=share)
        m = reference.m_value(float(entry["kappa"]), float(entry["t"]), complex(re, im))
        refs[W.integral_key(entry)] = f"{m.real!r} {m.imag!r}"
        require("integral", argv, entry, out, {"m": refs})
        entries.append(entry)
        log(f"integral {entry}")
    if len(entries) < wanted:
        raise RuntimeError(f"only {len(entries)} of {wanted} integral points qualify: "
                           "every t value has been tried once")
    strata = by_cost(entries, INTEGRAL_STRATA)
    return {"round_s": round_seconds(strata), "strata": strata}


def make_verify(rng, main, scratch):
    n = VERIFY_STRATA * VERIFY_PER_STRATUM
    entries = []
    for kappa, t in zip(rng.sample(decimals(0.05, 0.95), n), rng.sample(decimals(0.1, 2.49), n)):
        entry = {"kappa": kappa, "t": t}
        argv = W.op_argv("verify", entry, scratch)
        text, entry["cost_s"] = timed(main, argv)
        require("verify", argv, entry, text, {})
        entries.append(entry)
        log(f"verify {kappa} {t}: {entry['cost_s']} s")
    strata = by_cost(entries, VERIFY_STRATA)
    return {"round_s": round_seconds(strata), "strata": strata}


def main():
    cli = W.load_program()
    rng = random.Random(SEED)
    scratch = W.RESULTS / "make_pool"
    scratch.mkdir(parents=True, exist_ok=True)
    refs = {"coeffs": {str(W.TABLE_ORDER): {}, str(W.SWEEP_ORDER): {}}, "m": {}}
    try:
        pool = {
            "table": make_table(rng, cli.main, scratch, refs["coeffs"][str(W.TABLE_ORDER)]),
            "sweep": make_sweep(rng, cli.main, scratch, refs["coeffs"][str(W.SWEEP_ORDER)]),
            "integral": make_integral(rng, cli.main, scratch, refs["m"]),
            "verify": make_verify(rng, cli.main, scratch),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    W.POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    W.REFERENCE_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    log(f"wrote {W.POOL_PATH.name} and {W.REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()
