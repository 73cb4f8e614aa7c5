"""Run the edmdetect CLI in this process and stamp when its set-up ends.

Usage: python3 probe.py STAMP_FILE CLI_ARGS...

Behaves exactly like ``edmdetect CLI_ARGS...`` and exits with its code. On
the first call into prediction or trial work it writes two numbers to
STAMP_FILE: ``time.monotonic()`` and ``time.process_time()``. Interpreter
start, ``import edmdetect.cli``, config resolution and scenario
construction all lie before that moment. CLOCK_MONOTONIC is shared by
every process on the machine, so the parent can subtract its own spawn
time; the process's CPU clock counts from its start, so the second number
is the CPU time its set-up used.
"""

import sys
import time

from tracing import rebind

# Entry points of the work that follows set-up, as (module, function).
WORK_ENTRY_POINTS = (
    ("edmdetect.perturbation", "predict_q_distribution"),
    ("edmdetect.montecarlo", "run_trials"),
    ("edmdetect.montecarlo", "finite_difference_audit"),
)


def main() -> int:
    stamp_file = sys.argv[1]
    from edmdetect import cli

    stamped = []

    def stamping(fn):
        def wrapper(*args, **kwargs):
            if not stamped:
                stamped.append((time.monotonic(), time.process_time()))
                with open(stamp_file, "w") as fh:
                    fh.write("%r %r" % stamped[0])
            return fn(*args, **kwargs)

        return wrapper

    targets = {}
    for module_name, attr in WORK_ENTRY_POINTS:
        fn = getattr(sys.modules[module_name], attr)
        targets[id(fn)] = stamping(fn)
    # Replace every binding so the stamp fires however cli reaches the call.
    rebind(targets)
    return cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
