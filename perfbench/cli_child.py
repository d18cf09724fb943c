"""Run the tentopt CLI in this process with spans around every tentopt layer,
then write the span aggregates as JSON.

    python3 perfbench/cli_child.py TRACE_OUT.json [tentopt arguments...]

The import of ``tentopt.cli`` is recorded as the span ``cli.import`` and the
command itself as ``cli.main``.  The CLI's exit code is passed through.
"""

import importlib
import json
import sys

from layers import HOOKS, LAYERS
from spans import Tracer


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer(HOOKS)
    code = 0
    try:
        with tracer.span("cli.import"):
            cli = importlib.import_module("tentopt.cli")
        sys.argv = ["tentopt", *args]
        with tracer.install(LAYERS), tracer.span("cli.main"):
            cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        covered = sum(tracer.stats[name].total_s for name in ("cli.import", "cli.main"))
        with open(out, "w") as fh:
            json.dump({"stats": {name: s.as_dict() for name, s in tracer.stats.items()},
                       "edge_s": dict(tracer.edge_s), "covered_s": covered}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
