"""Forward-vs-backward gate for the DRAT checker.

Backward (core-first) checking exists to skip the lemmas the refutation
never uses — on realistic proofs most of them (solvers learn far more
than the final conflict needs). This benchmark generates a gen_drat
fixture whose dead fraction is by construction, runs the checker both
ways in both encodings, and gates:

* **prune** — the backward pass skips at least ``MIN_SKIP_FRACTION`` of
  the proof's add steps (the fixture is ~91% dead, so this has margin);
* **speed** — backward wall time is at most ``TIME_RATIO`` x forward on
  the same artifact (skipping work must actually be cheaper);
* **parity** — both encodings and both modes agree the proof verifies,
  and the two encodings' step streams are identical;
* **scaling** (full runs only) — forward time on the full fixture over
  forward time on the quick one is at most ``MAX_FORWARD_SCALING``. The
  full fixture has ~15x the lemmas; a per-lemma cost that grows with the
  database (re-propagating every unit for each lemma) reads far above
  that, and a ratio of two runs on one host does not depend on the host.

Usage:

    PYTHONPATH=src python benchmarks/bench_drat.py          # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_drat.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.cnf import CnfFormula  # noqa: E402
from repro.proofs import DratChecker, read_proof  # noqa: E402
from tools.gen_drat import generate  # noqa: E402

#: The backward pass must skip at least this fraction of add steps.
MIN_SKIP_FRACTION = 0.30
#: Backward wall time vs forward on the same artifact. Full runs demand
#: an outright win; quick runs only guard against pathological regressions
#: (tiny fixtures make the ratio noisy).
TIME_RATIO = 1.0
QUICK_TIME_RATIO = 1.5

#: (core, dead, rat) block counts. The full fixture checks ~4.6k lemmas.
FULL_SHAPE = (400, 4000, 200)
QUICK_SHAPE = (30, 300, 15)

#: Forward time on FULL_SHAPE over forward time on QUICK_SHAPE, each the
#: minimum of FORWARD_REPEATS runs on the binary encoding.
MAX_FORWARD_SCALING = 60
FORWARD_REPEATS = 3


def run_one(formula: CnfFormula, proof: str, backward: bool) -> tuple[float, dict]:
    start = time.perf_counter()
    report = DratChecker(formula, proof, backward=backward).check()
    elapsed = time.perf_counter() - start
    if not report.verified:
        mode = "backward" if backward else "forward"
        raise SystemExit(f"{mode} check failed on {proof}: {report.failure}")
    return elapsed, report


def min_forward_s(shape: tuple[int, int, int], tmp_dir: str) -> float:
    """Best-of-FORWARD_REPEATS forward time on a fresh ``shape`` fixture."""
    core, dead, rat = shape
    inst = generate(core=core, dead=dead, rat=rat)
    formula = CnfFormula(inst.num_vars, [list(c) for c in inst.clauses])
    path = os.path.join(tmp_dir, f"scaling-{core}-{dead}-{rat}.drat")
    inst.write_proof(path, "binary")
    return min(run_one(formula, path, backward=False)[0]
               for _ in range(FORWARD_REPEATS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: small fixture, no JSON")
    parser.add_argument("--out", default="results/BENCH_drat.json")
    args = parser.parse_args(argv)

    core, dead, rat = QUICK_SHAPE if args.quick else FULL_SHAPE
    time_ratio = QUICK_TIME_RATIO if args.quick else TIME_RATIO
    inst = generate(core=core, dead=dead, rat=rat)
    formula = CnfFormula(inst.num_vars, [list(c) for c in inst.clauses])

    failures = []
    rows = []
    scaling = None
    with tempfile.TemporaryDirectory(prefix="bench-drat-") as tmp_dir:
        proofs = {}
        for fmt in ("text", "binary"):
            path = os.path.join(tmp_dir, f"proof.{fmt}")
            inst.write_proof(path, fmt)
            proofs[fmt] = path
        if (read_proof(proofs["text"]).steps
                != read_proof(proofs["binary"]).steps):
            failures.append("text and binary encodings decode differently")

        for fmt, path in proofs.items():
            forward_s, forward = run_one(formula, path, backward=False)
            backward_s, backward = run_one(formula, path, backward=True)
            prune = backward.prune or {}
            ratio = backward_s / forward_s if forward_s else 0.0
            row = {
                "encoding": fmt,
                "proof_bytes": os.path.getsize(path),
                "adds": inst.num_adds,
                "forward_s": round(forward_s, 4),
                "backward_s": round(backward_s, 4),
                "backward_over_forward": round(ratio, 3),
                "verified_adds": prune.get("verified_adds"),
                "skipped": prune.get("skipped"),
                "dead_fraction": round(prune.get("dead_fraction", 0.0), 3),
                "rat_lemmas": forward.proof["rat_lemmas"],
            }
            rows.append(row)
            print(f"== {fmt}: fwd {forward_s:.3f}s  bwd {backward_s:.3f}s "
                  f"(x{ratio:.2f})  skipped {row['skipped']}/{row['adds']} "
                  f"({row['dead_fraction']:.0%} dead)")
            if prune.get("dead_fraction", 0.0) < MIN_SKIP_FRACTION:
                failures.append(
                    f"{fmt}: backward skipped only "
                    f"{prune.get('dead_fraction', 0.0):.0%} of add steps "
                    f"(gate: >= {MIN_SKIP_FRACTION:.0%})"
                )
            if ratio > time_ratio:
                failures.append(
                    f"{fmt}: backward took {ratio:.2f}x forward "
                    f"(gate: <= {time_ratio}x)"
                )

        if not args.quick:
            quick_s = min_forward_s(QUICK_SHAPE, tmp_dir)
            full_s = min_forward_s(FULL_SHAPE, tmp_dir)
            scaling = {"quick_forward_s": round(quick_s, 4),
                       "full_forward_s": round(full_s, 4),
                       "ratio": round(full_s / quick_s, 1)}
            print(f"== scaling: fwd full {full_s:.3f}s / quick {quick_s:.4f}s "
                  f"= x{scaling['ratio']}")
            if full_s > MAX_FORWARD_SCALING * quick_s:
                failures.append(
                    f"forward scaling: full took {scaling['ratio']}x quick "
                    f"(gate: <= {MAX_FORWARD_SCALING}x)"
                )

    if not args.quick:
        payload = {
            "benchmark": "DRAT forward vs backward checking",
            "fixture": {"core": core, "dead": dead, "rat": rat,
                        "num_vars": inst.num_vars,
                        "num_clauses": len(inst.clauses),
                        "adds": inst.num_adds},
            "gates": {"min_skip_fraction": MIN_SKIP_FRACTION,
                      "time_ratio": time_ratio,
                      "max_forward_scaling": MAX_FORWARD_SCALING},
            "rows": rows,
            "forward_scaling": scaling,
            "failures": failures,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all drat gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
