"""Run a ``repro`` command with layer spans recorded (the traced run).

    python perfbench/traced_entry.py cli OUT.json check DESIGN.v ...
        One CLI invocation as one request; its spans are written to OUT.json.
    python perfbench/traced_entry.py serve DIR serve --socket SOCK ...
        The daemon.  The wrappers are installed before ``serve`` forks its
        workers, so the workers inherit them; each daemon job is one
        request, and each worker writes DIR/worker-<pid>.json on exit.

Exits with the command's own exit code.
"""

import os
import sys

from layers import Tracer, install


def main() -> int:
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    install(tracer)
    import repro.cli

    if mode == "cli":
        with tracer.requesting():
            code = repro.cli.main(argv)
        tracer.dump(out)
        return code

    import repro.api
    import repro.service.supervisor as supervisor

    tracer.wrap_request(repro.api, "check")
    worker_main = supervisor.worker_main

    def traced_worker_main(*args, **kwargs):
        try:
            worker_main(*args, **kwargs)
        finally:
            tracer.dump(os.path.join(out, "worker-%d.json" % os.getpid()))

    supervisor.worker_main = traced_worker_main
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
