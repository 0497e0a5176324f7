"""One weakrig CLI call with every layer traced, for the traced cli_fixtures run.

    python3 perfbench/cli_child.py SPANS.npz ARG...

Runs ``weakrig.cli.main(ARG...)``, saves the spans to SPANS.npz and exits
with the CLI's exit code.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import weakrig.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = weakrig.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.save(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
