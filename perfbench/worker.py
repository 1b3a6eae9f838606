"""The workload process: a fresh interpreter that drives ``painleve.cli.run``.

    python3 worker.py setup WARMUP_FILE
        import painleve.cli, run the warm-up file, print perf_counter() at its end.
    python3 worker.py run WARMUP_FILE QUERY_FILE SECONDS TRACE RESULT_FILE [TRACE_FILE]
        warm up, then run whole timed passes until SECONDS have gone by; with
        TRACE=1 also one traced pass.  Writes RESULT_FILE.

``sys.stdout`` is replaced during each pass by a writer that keeps every
NDJSON record and the perf_counter() time at which it ended.  One client,
one query in flight: the closed loop is the batch loop itself.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

MIN_PASSES = 3  # each query's latency is its fastest repetition over the passes


class Recorder(io.TextIOBase):
    """stdout stand-in: collects records and the time each one ended."""

    def __init__(self):
        self.parts: list[str] = []
        self.records: list[str] = []
        self.ends: list[float] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        if text.endswith("\n"):
            self.ends.append(perf_counter())
            self.records.append("".join(self.parts))
            self.parts.clear()
        return len(text)


def one_pass(cli, path: str, recorder: Recorder) -> tuple[float, float, int, str]:
    """Run the batch file once; returns (start, end, exit code, stderr)."""
    err = io.StringIO()
    out_saved, err_saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = recorder, err
    try:
        start = perf_counter()
        code = cli.run(["--batch", path])
        end = perf_counter()
    finally:
        sys.stdout, sys.stderr = out_saved, err_saved
    return start, end, code, err.getvalue()


def main(argv: list[str]) -> int:
    mode, warmup = argv[0], argv[1]
    from painleve import cli

    one_pass(cli, warmup, Recorder())
    if mode == "setup":
        print(repr(perf_counter()))
        return 0

    queries, seconds, trace, result_file = argv[2], float(argv[3]), argv[4] == "1", argv[5]
    # Whole timed passes until the time is up.  The first pass's records are
    # kept as the reference; later passes must repeat them byte for byte.
    reference = Recorder()
    passes = []  # per pass: start, end, record end times, records unlike the reference
    began = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - began < seconds:
        rec = reference if not passes else Recorder()
        start, end, code, err = one_pass(cli, queries, rec)
        if rec is reference:
            first_exit, first_err = code, err
        differ = {i: r for i, r in enumerate(rec.records) if i >= len(reference.records) or r != reference.records[i]}
        passes.append({"start": start, "end": end, "ends": rec.ends, "count": len(rec.records), "differ": differ})
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "reference": reference.records,
        "reference_exit": first_exit,
        "reference_stderr": first_err[-4000:],
        "passes": passes,
        "peak_rss_kb": peak_rss_kb,
    }
    if trace:
        from tracer import Tracer

        rec = Recorder()
        tracer = Tracer(lambda: len(rec.ends))
        tracer.install()
        try:
            start, end, _, _ = one_pass(cli, queries, rec)
        finally:
            tracer.uninstall()
        count = max(len(rec.records), 1)
        result["traced"] = {
            "wall_s": end - start,
            "count": len(rec.records),
            "matches_reference": rec.records == reference.records,
            "layers": tracer.layer_metrics(end - start, count),
        }
        tracer.write(argv[6])
    with open(result_file, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
