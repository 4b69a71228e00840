"""Run one hivbrn command with layer spans recorded (``run.py --trace 1``).

    python3 bench/cli_shim.py SPANS.npz OP_INDEX [hivbrn arguments...]

Exits with the command's exit code and leaves the spans in SPANS.npz.
Spans recorded inside forked ``--workers`` processes are lost with them.
"""

import sys

import tracing


def main() -> int:
    path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.current_op = op
    import hivbrn.cli

    try:
        return hivbrn.cli.main(argv)
    finally:
        tracer.save(path)


if __name__ == "__main__":
    sys.exit(main())
