"""The process entry of ``python -m repro`` and the ``repro`` console script."""

import gc
import sys

from repro.cli import main


def run() -> int:
    """Run one CLI command as the whole process; returns its exit code.

    The process ends right after the command, so once its output is
    flushed every object is frozen out of the garbage collector's reach:
    interpreter shutdown then no longer walks and frees every module's
    objects.  ``atexit`` hooks still run (multiprocessing's child clean-up
    among them).  In-process callers use :func:`repro.cli.main`, which
    never freezes.
    """
    try:
        return main()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
