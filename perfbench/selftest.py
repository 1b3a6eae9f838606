"""Shows that the checks reject corrupted records.

    python3 perfbench/selftest.py [--seed N]

Runs one query of every kind through ``painleve.cli.run(["--batch", ...])``,
confirms each record passes its check, then corrupts records the way a
faulty program would (a flipped verdict, a word that misses w, a wrong
final state, a dropped line) and confirms each corruption is caught.
Exits 1 if a corruption gets through.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _set_verdict(record, kind, value):
    for v in record["verdicts"]:
        if v["kind"] == kind:
            v["value"] = value
    return record


def corruptions(query, record):
    """(description, corrupted record) pairs for one query's record."""
    sub = query.line.split()[0]
    r = lambda: copy.deepcopy(record)  # noqa: E731
    out = []
    if sub == "classify":
        label = query.expect["stratum"] or "unknown"
        out.append(("stratum relabelled", _set_verdict(r(), "stratum", "generic" if label != "generic" else "W")))
        out.append(("morley-rank 2", _set_verdict(r(), "morley-rank", 2)))
        minimal = {"yes": "no", "no": "yes", "unknown": "yes"}
        current = {v["kind"]: v["value"] for v in record["verdicts"]}["strongly-minimal"]
        out.append(("strong minimality flipped", _set_verdict(r(), "strongly-minimal", minimal[current])))
    elif sub == "orbit":
        flipped = "no" if query.expect["related"] == "yes" else "yes"
        out.append(("related flipped", _set_verdict(r(), "related", flipped)))
        if record.get("word"):
            bad = r()
            bad["word"] = bad["word"] + [workloads.ORBIT_GENERATORS[query.expect["family"]][1]]
            out.append(("word misses w", bad))
        if (record.get("witness") or {}).get("shift"):
            bad = r()
            bad["witness"]["shift"][0] = bad["witness"]["shift"][0] + "+1"
            out.append(("witness shift off by one", bad))
    elif sub == "orthogonal":
        flipped = "open" if query.expect["verdict"] != "open" else "orthogonal"
        out.append(("orthogonality flipped", _set_verdict(r(), "orthogonality", flipped)))
    elif sub == "verify":
        kind = record["verdicts"][0]["kind"]
        value = record["verdicts"][0]["value"]
        wrong = {True: False, False: True}.get(value, "-1/2" if value == "1/2" else "1/2")
        if isinstance(value, dict):
            wrong = {**value, "all_zero": False}
        out.append((f"{kind} flipped", _set_verdict(r(), kind, wrong)))
    elif sub == "integrate":
        bad = r()
        bad["final"][1] += 1e-3
        out.append(("final state off by 1e-3", bad))
        bad = r()
        bad["residual"]["value"] = 1.5 * bad["residual"]["value"] + 1e-7
        out.append(("residual off by half", bad))
        bad = r()
        bad["status"] = "blowup"
        out.append(("status blowup", bad))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    from painleve import cli

    out_dir = HERE / "out" / "selftest"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    caught = missed = 0
    for name in run.WORKLOADS:
        queries = workloads.warmup(workloads.build(name, args.seed, str(out_dir)))
        batch = out_dir / f"{name}.txt"
        batch.write_text("".join(q.line + "\n" for q in queries))
        saved, sys.stdout = sys.stdout, io.StringIO()
        try:
            cli.run(["--batch", str(batch)])
            records = sys.stdout.getvalue().splitlines()
        finally:
            sys.stdout = saved
        missing, wrong, notes = run.verify_reference(queries, records)
        if missing or wrong:
            print(f"{name}: the program's own records fail their checks: {notes}")
            return 1
        for q, line in zip(queries, records):
            for what, bad in corruptions(q, json.loads(line)):
                if checks.check(q, bad) is None:
                    missed += 1
                    print(f"MISSED  {name}: {what} in {q.line}")
                else:
                    caught += 1
        dropped = records[:1] + records[2:]
        missing, _, _ = run.verify_reference(queries, dropped)
        if missing == {1}:
            caught += 1
        else:
            missed += 1
            print(f"MISSED  {name}: a dropped record was counted as {sorted(missing)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    print(f"selftest: {caught} corruptions caught, {missed} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
