"""Run one subelliptic command with the span wrappers installed.

    python3 perfbench/launch.py SPANS_PATH SUBCOMMAND ARGS...

It does what `python -m subelliptic SUBCOMMAND ARGS...` does, inside
`spans.traced`, then writes the spans to SPANS_PATH, one JSON list per line,
and exits with the command's status.  Only the traced cli run uses it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spans  # noqa: E402
from subelliptic import cli  # noqa: E402


def main() -> int:
    recorder = spans.Recorder()
    with spans.traced(recorder):
        code = recorder.call("cli.main", cli.main, sys.argv[2:])
    recorder.write(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
