"""The program's server with span wrappers installed from outside.

    python -m e2e.traced_server SPANS_PATH serve --snapshot ... --port 0 ...

Installs the wrappers, hands the remaining arguments to the program's own
CLI, and writes the spans to ``SPANS_PATH`` once the server has shut down
(``repro serve`` returns from its CLI after a SIGTERM).
"""

from __future__ import annotations

import json
import sys
import types

from . import layers, spans


def main(argv: list[str]) -> int:
    spans_path, *program_args = argv
    tracer = spans.Tracer(layers.TARGETS + layers.SERVER_TARGETS, layers.SERVER_QUEUES)
    tracer.install()

    # The TCP front calls json.loads/json.dumps through its module's ``json``
    # name; give that module (and nobody else) a traced view of the two.
    import repro.server.serve as front

    front.json = types.SimpleNamespace(
        loads=tracer.wrap("server.serve.decode", json.loads),
        dumps=tracer.wrap("server.serve.encode", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    )

    from repro.cli import main as program_main

    try:
        return program_main(program_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
