"""One batch sample: a fresh interpreter that imports the program and sweeps.

Usage: ``python sweep_child.py SPEC.json`` where the spec names the grid,
the worker count, the store directory, where to write the result, and
whether to trace.  ``"probe": true`` stops right after ``import repro``,
for extra start-up samples.

The process pool of a ``workers >= 2`` sweep re-imports this file in each
worker (as ``__mp_main__``), so the sweep itself runs under the
``__main__`` check.  A traced sweep names a directory in
``REFBENCH_WORKER_SPANS``; each pool worker then wraps the layers too and
writes its spans there when it exits.
"""

import json
import os
import resource
import sys
import time

WORKER_SPANS = "REFBENCH_WORKER_SPANS"


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _trace_worker(directory: str) -> None:
    """Wrap the layers in this pool worker and dump its spans at exit."""
    import atexit

    from harness import layers
    from harness.spans import Recorder

    recorder = Recorder()
    layers.install(recorder)
    atexit.register(recorder.dump, os.path.join(directory, f"worker-{os.getpid()}.spans.json"))


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import repro  # noqa: F401 - start-up ends when the package is imported

    ready = time.monotonic()
    result = {"ready": ready}
    if not spec.get("probe"):
        from repro import api

        recorder = None
        if spec["trace"]:
            from harness import layers
            from harness.spans import Recorder

            recorder = Recorder()
            result["missing"] = layers.install(recorder)
            os.makedirs(spec["worker_spans"], exist_ok=True)
            os.environ[WORKER_SPANS] = spec["worker_spans"]
        start = time.perf_counter()
        report = api.sweep(spec["grid"], workers=spec["workers"], out=spec["out"])
        end = time.perf_counter()
        result.update(
            wall_s=end - start,
            start=start,
            end=end,
            peak_rss_mb=_peak_rss_mib(),
            rows=list(report.rows),
            cache=report.cache.as_dict(),
        )
        if recorder is not None:
            recorder.dump(spec["spans"])
            result["trace"] = report.trace
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
elif __name__ == "__mp_main__" and os.environ.get(WORKER_SPANS):
    _trace_worker(os.environ[WORKER_SPANS])
