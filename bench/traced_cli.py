"""`umclust` command line with every layer traced by `spans.py`.

    python3 bench/traced_cli.py SPANS_JSON train --config run.yaml --out runs/a

Runs `umclust.cli.main` on the remaining arguments inside a `cmd.<command>`
span, then writes the spans and counts to SPANS_JSON and exits with the
command's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out, args = Path(argv[0]), argv[1:]
    from umclust import cli

    tracer = spans.Tracer()
    with spans.instrument(tracer), tracer.span(f"cmd.{args[0]}"):
        code = cli.main(args)
    tracer.save(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
