"""Traced serfkit CLI process: ``launcher.py SPANS_OUT TRACE_MEMORY CLI_ARGS...``.

Times the import of ``serfkit.cli`` as a ``cli`` span, installs the span
wrappers, runs ``serfkit.cli.main(CLI_ARGS)`` and, however it ends, writes
the spans and counters to ``SPANS_OUT`` as JSON for the parent benchmark to
merge. ``TRACE_MEMORY`` is 1 to run record reads under ``tracemalloc``, else
0. Exit status and output are those of ``serfkit.cli.main``.
"""

import json
import sys

import spans


def main() -> int:
    out_path, trace_memory, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = spans.Tracer(trace_memory)
    try:
        span = tracer.open("cli", "import")
        try:
            import serfkit.cli
        finally:
            tracer.close(span)
        spans.Installation(tracer)
        return serfkit.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
