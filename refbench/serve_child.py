"""The traced service's entry point: wrap the layers, then run ``repro serve-api``.

Usage: ``python serve_child.py SPANS.json serve-api [ARGS...]``.  The spans
stay in memory while the server runs and are written to ``SPANS.json``
once it stops (on SIGINT, like the untraced ``python -m repro serve-api``).
"""

import sys


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from harness import layers
    from harness.spans import Recorder

    recorder = Recorder()
    missing = layers.install(recorder)
    if missing:
        print(f"not wrapped, absent from this program: {', '.join(missing)}", flush=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
