"""Run one benchmark operation in-process with layer spans installed.

    python3 perfbench/launcher.py --op ID --spans OUT.json cli <twindual argv...>
    python3 perfbench/launcher.py --op ID --spans OUT.json lib <libops argv...>

Imports ``twindual.cli`` (timed as ``cli.import``), installs the wrappers
of ``tracing.py``, runs ``twindual.cli.main`` or ``libops.main`` and writes
the spans to OUT.json.  The exit code is the operation's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[0] != "--op" or argv[2] != "--spans" or argv[4] not in ("cli", "lib"):
        print("usage: launcher.py --op ID --spans OUT.json {cli|lib} ARGS...", file=sys.stderr)
        return 2
    op, spans_path, kind, op_argv = argv[1], argv[3], argv[4], argv[5:]
    start = time.perf_counter()
    import twindual.cli

    import_s = time.perf_counter() - start

    import tracing

    tracer = tracing.Tracer(op)
    tracing.install(tracer)
    if kind == "cli":
        entry = twindual.cli.main
    else:
        import libops

        entry = libops.main
    try:
        code = entry(op_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(spans_path, "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
