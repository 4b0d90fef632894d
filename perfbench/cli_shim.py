"""Start one traced ttone CLI job: what `python -m ttone.cli ARGV...` does,
with the benchmark's span wrappers installed first.

    python3 perfbench/cli_shim.py SPANS_OUT LAUNCH_NS ARGV...

LAUNCH_NS is CLOCK_MONOTONIC (system-wide on Linux) read by the parent just
before it started this process, so `cli.child_start` spans launch to run.
"""

import sys
import time


def main() -> int:
    spans_out, launch_ns, *argv = sys.argv[1:]
    import tracing
    import ttone
    import ttone.cli

    tracer = tracing.Tracer()
    tracing.install(tracer, ttone)
    now = time.perf_counter()
    started = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(launch_ns)) / 1e9
    tracer.add("cli.child_start", now - started, now)
    verb = argv[0] if argv else "none"
    code = tracer.wrap(f"cli.run.{verb}", ttone.cli.run)(argv)
    sys.stdout.flush()
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
