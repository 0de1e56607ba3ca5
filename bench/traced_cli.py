"""Traced stand-in for `python -m fghodge`: wrap the layers, then call cli.main.

    python3 bench/traced_cli.py SPANS.json ARGV...

stdout and the exit code are those of fghodge.cli.main(ARGV); the import
time and the spans go to SPANS.json when main returns.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main(spans_path: str, argv: list[str]) -> int:
    t0 = perf_counter()
    import fghodge.cli
    import_s = perf_counter() - t0

    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 0
    code = fghodge.cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
