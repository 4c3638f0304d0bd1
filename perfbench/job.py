"""Run one qchar command in this process, as `python -m qchar.cli` would.

Usage: python3 perfbench/job.py READY_FD TRACE_FILE|- [qchar arguments...]

Imports qchar from the checkout's `src/`, writes the monotonic time at
which it is imported and ready, and the CPU time spent until then, to
file descriptor READY_FD, then runs
`qchar.cli.main` on the arguments and exits with its code.  Without
arguments the process stops once ready; the benchmark uses that to
time set-up alone.  With a TRACE_FILE the layer functions are wrapped
before the command runs and their spans are written there afterwards.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    ready_fd, trace_path, *argv = sys.argv[1:]
    sys.path.insert(0, SRC)
    import qchar.cli
    if not os.path.abspath(qchar.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError("qchar imported from %s, not from %s"
                           % (qchar.cli.__file__, SRC))
    ready = time.monotonic()
    cpu = os.times()
    os.write(int(ready_fd), b"%r %r" % (ready, cpu.user + cpu.system))
    os.close(int(ready_fd))
    if not argv:
        return 0
    if trace_path == "-":
        return qchar.cli.main(argv)
    from tracer import Tracer
    tracer = Tracer(os.path.basename(trace_path))
    tracer.install()
    try:
        return qchar.cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
