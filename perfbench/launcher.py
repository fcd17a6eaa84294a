"""Run one ``dpnego`` command with the benchmark's wrappers installed.

Usage: python launcher.py SPANS_FILE COMMAND [ARGS...]

Installs the tracer, calls ``dpnego.cli.main`` with the remaining arguments,
and on exit writes the spans together with the process's write-byte count
(``wchar`` from its own I/O accounting) to SPANS_FILE. Exits with the
command's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracing


def written_bytes() -> int:
    """Bytes this process has passed to write() so far."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key == "wchar":
                return int(value)
    raise RuntimeError("no wchar in /proc/self/io")


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    import dpnego.cli

    try:
        code = dpnego.cli.main(argv)
    finally:
        wchar = written_bytes()
        tracer.uninstall()
        spans = tracing.TraceSet()
        spans.add_tracer(tracer)
        spans.extra.append({"wchar": wchar, "command": argv[0]})
        spans.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
