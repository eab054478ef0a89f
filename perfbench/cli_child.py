"""One traced ``latq`` CLI invocation, for the traced run of cli_cold.

    python3 perfbench/cli_child.py TRACE_FILE -- <latq arguments>

Times ``import latq.cli``, wraps latq's public functions, runs the CLI's
``main`` and writes the spans to TRACE_FILE as JSON.  The CLI's stdout,
stderr and exit code pass through unchanged.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main():
    trace_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py TRACE_FILE -- <latq arguments>")
    t0 = time.perf_counter()
    import latq.cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = latq.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.add_search_cache()
        sys.stdout.flush()
        Path(trace_file).write_text(json.dumps({"import_s": import_s, "trace": tracer.snapshot()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
