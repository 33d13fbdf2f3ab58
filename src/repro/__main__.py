"""The process entry of ``python -m repro`` and the ``repro`` console script."""

import gc
import os
import sys

from repro.cli import main

#: the exit status when the reader of stdout went away (``repro table1 |
#: head -n 1``): what a shell reports for SIGPIPE, and no verdict's status.
EXIT_BROKEN_PIPE = 141


def run() -> int:
    """Run one CLI command as the whole process; returns its exit code.

    The process ends right after the command, so once its output is
    flushed every object is frozen out of the garbage collector's reach:
    interpreter shutdown then no longer walks and frees every module's
    objects.  ``atexit`` hooks still run (multiprocessing's child clean-up
    among them).  A closed stdout ends the output: the process exits with
    :data:`EXIT_BROKEN_PIPE` and no traceback.  In-process callers use
    :func:`repro.cli.main`, which never freezes.
    """
    try:
        try:
            return main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at the null device, so the interpreter's own flush
        # at exit finds somewhere to write what is still buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        sys.stderr.flush()
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
