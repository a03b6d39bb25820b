"""Run one catlab CLI invocation with every layer wrapped, then write its spans.

    python3 perfbench/traced_cli.py SPAN_DIR <catlab arguments...>

The spans of this process and of any pool workers end up in
``SPAN_DIR/spans.json``.  Exits 4 if a wrapper is still bound after the run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer, leftover_wrappers


def main(argv: list[str]) -> int:
    span_dir, catlab_argv = Path(argv[0]), argv[1:]
    import catlab.cli

    tracer = Tracer(span_dir)
    tracer.install()
    try:
        code = catlab.cli.main(catlab_argv)
    finally:
        tracer.restore()
    left = leftover_wrappers()
    if left:
        print(f"tracer wrappers left bound: {left}", file=sys.stderr)
        return 4
    (span_dir / "spans.json").write_text(json.dumps(tracer.all_spans()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
