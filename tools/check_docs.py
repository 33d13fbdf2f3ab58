#!/usr/bin/env python
"""Keep the documentation honest: run the quickstarts, check links and tags.

Four checks, all run by CI and ``make docs-check``:

1. **Quickstart execution** -- every ``bash`` fenced block between
   ``<!-- docs-check:begin -->`` / ``<!-- docs-check:end -->`` markers in
   README.md is executed line by line in a scratch directory (with a small
   counter design materialized as ``design.v``).  ``repro ...`` commands run
   as ``python -m repro ...`` against the in-tree sources, so the documented
   CLI cannot drift from the implementation.
2. **Service quickstart** -- the marked block in docs/service.md is executed
   as a real daemon session: ``repro serve`` runs in the background, the
   ``repro submit`` lines run against its socket, the documented ``--stats``
   call must report a nonzero warm-hit counter, and the daemon must exit
   cleanly on ``--shutdown``.
3. **Link check** -- every relative markdown link in README.md and
   ``docs/*.md`` must point at an existing file (anchors are stripped;
   external ``http(s)``/``mailto`` links are not fetched).
4. **Schema tags** -- every ``repro-<name>/vN[.M]`` tag in README.md and
   ``docs/*.md`` must equal a schema constant defined in ``src/repro``: a
   module-level name bound to such a string (``REQUEST_SCHEMA``,
   ``REPORT_SCHEMA``, ``PROTOCOL``, the batch and fleet report tags), so
   a version bump cannot leave a stale tag in the documentation.

``--only quickstart|service|links|schemas`` runs a single check (CI's
service smoke job uses ``--only service``).
"""

import argparse
import ast
import glob
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

#: the design the quickstart commands operate on: a 4-bit decade counter
#: (wraps at 9), deep enough to learn facts but trivial to check.
_DESIGN = """\
module counter(clk, rst, en, count);
  input clk, rst, en;
  output [3:0] count;
  reg [3:0] count;
  always @(posedge clk) begin
    if (rst) count <= 4'd0;
    else if (en) begin
      if (count == 4'd9) count <= 4'd0;
      else count <= count + 4'd1;
    end
  end
endmodule
"""

_BLOCK_RE = re.compile(
    r"<!--\s*docs-check:begin\s*-->\s*```bash\n(.*?)```",
    re.DOTALL,
)
#: inline + reference-style markdown links; images share the syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: a schema tag as the documentation spells it (a trailing full stop is
#: punctuation, not part of the version).
_TAG_RE = re.compile(r"repro-[a-z][a-z-]*/v[0-9][0-9A-Za-z.]*")
#: a schema tag as a constant in the sources holds it.
_SCHEMA_VALUE_RE = re.compile(r"repro-[a-z][a-z-]*/v[0-9]+(\.[0-9]+)?")


def _quickstart_commands(readme_text):
    """The command lines of every marked quickstart block, in order."""
    commands = []
    for block in _BLOCK_RE.findall(readme_text):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words:
                commands.append(words)
    return commands


def run_quickstart():
    """Execute the README quickstart blocks; return a list of failures."""
    readme = open(os.path.join(REPO, "README.md")).read()
    commands = _quickstart_commands(readme)
    if not commands:
        return ["README.md: no docs-check quickstart block found"]
    failures = []
    env = _docs_env()
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as scratch:
        with open(os.path.join(scratch, "design.v"), "w") as stream:
            stream.write(_DESIGN)
        for words in commands:
            if words[0] != "repro":
                failures.append(
                    "quickstart: only `repro ...` commands are runnable, got %r"
                    % " ".join(words)
                )
                continue
            argv = [sys.executable, "-m", "repro"] + words[1:]
            proc = subprocess.run(
                argv, cwd=scratch, env=env, capture_output=True, text=True,
                timeout=300,
            )
            label = " ".join(words)
            if proc.returncode != 0:
                failures.append(
                    "quickstart: `%s` exited %d\n%s"
                    % (label, proc.returncode, (proc.stderr or proc.stdout).strip())
                )
            else:
                print("ok: %s" % label)
    return failures


def _docs_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_KB", None)
    env.pop("REPRO_SERVICE_SOCKET", None)
    return env


def run_service_quickstart():
    """Execute the docs/service.md daemon session; return a list of failures.

    The documented ``repro serve ... &`` line becomes a background process;
    every other line runs in order against the in-tree sources.  Beyond
    exit codes, the session's documented claims are asserted: the warm-hit
    counter in the ``--stats`` output is nonzero after the repeat submit,
    and the daemon exits 0 after ``--shutdown``.
    """
    page = os.path.join(REPO, "docs", "service.md")
    commands = _quickstart_commands(open(page).read())
    if not commands:
        return ["docs/service.md: no docs-check quickstart block found"]
    failures = []
    env = _docs_env()
    daemon = None
    with tempfile.TemporaryDirectory(prefix="repro-docs-svc-") as scratch:
        with open(os.path.join(scratch, "design.v"), "w") as stream:
            stream.write(_DESIGN)
        try:
            for words in commands:
                background = words[-1] == "&"
                if background:
                    words = words[:-1]
                if words[0] != "repro":
                    failures.append(
                        "service quickstart: only `repro ...` commands are "
                        "runnable, got %r" % " ".join(words)
                    )
                    continue
                argv = [sys.executable, "-m", "repro"] + words[1:]
                label = " ".join(words)
                if background:
                    daemon = subprocess.Popen(
                        argv, cwd=scratch, env=env,
                        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                        text=True,
                    )
                    socket_path = os.path.join(scratch, "verify.sock")
                    deadline = time.monotonic() + 30.0
                    while time.monotonic() < deadline:
                        if os.path.exists(socket_path) or daemon.poll() is not None:
                            break
                        time.sleep(0.05)
                    if daemon.poll() is not None or not os.path.exists(socket_path):
                        failures.append(
                            "service quickstart: `%s` did not come up" % label
                        )
                        break
                    print("ok: %s (daemon up)" % label)
                    continue
                proc = subprocess.run(
                    argv, cwd=scratch, env=env, capture_output=True, text=True,
                    timeout=300,
                )
                if proc.returncode != 0:
                    failures.append(
                        "service quickstart: `%s` exited %d\n%s"
                        % (label, proc.returncode,
                           (proc.stderr or proc.stdout).strip())
                    )
                    continue
                if "--stats" in words:
                    stats = json.loads(proc.stdout)
                    warm = sum(
                        worker.get("warm_hits", 0)
                        for worker in stats.get("workers", [])
                    )
                    if warm < 1:
                        failures.append(
                            "service quickstart: `%s` reported no warm hits "
                            "after the repeat submit:\n%s"
                            % (label, proc.stdout.strip())
                        )
                        continue
                print("ok: %s" % label)
            if daemon is not None and not failures:
                try:
                    daemon.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    failures.append(
                        "service quickstart: daemon still running after "
                        "--shutdown"
                    )
                else:
                    if daemon.returncode != 0:
                        failures.append(
                            "service quickstart: daemon exited %d after "
                            "--shutdown\n%s"
                            % (daemon.returncode, daemon.stdout.read().strip())
                        )
                    else:
                        print("ok: daemon shut down cleanly")
        finally:
            if daemon is not None and daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    return failures


def _pages():
    """README.md and every page under docs/."""
    return [os.path.join(REPO, "README.md")] + sorted(
        glob.glob(os.path.join(REPO, "docs", "*.md"))
    )


def check_links():
    """Verify every relative markdown link resolves; return failures."""
    failures = []
    for page in _pages():
        base = os.path.dirname(page)
        for target in _LINK_RE.findall(open(page).read()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not os.path.exists(os.path.join(base, path)):
                failures.append(
                    "%s: broken link -> %s"
                    % (os.path.relpath(page, REPO), target)
                )
        print("ok: links in %s" % os.path.relpath(page, REPO))
    return failures


def schema_constants():
    """The tags of every schema constant defined in ``src/repro``."""
    constants = set()
    for path in glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True):
        for node in ast.parse(open(path).read(), path).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not (isinstance(value, ast.Constant) and isinstance(value.value, str)
                    and _SCHEMA_VALUE_RE.fullmatch(value.value)):
                continue
            if any(isinstance(target, ast.Name) and target.id.isupper()
                   for target in targets):
                constants.add(value.value)
    return constants


def check_schema_tags():
    """Every schema tag in the documentation names a current constant."""
    constants = schema_constants()
    failures = []
    for page in _pages():
        relative = os.path.relpath(page, REPO)
        for number, line in enumerate(open(page), 1):
            for tag in _TAG_RE.findall(line):
                tag = tag.rstrip(".")
                if tag not in constants:
                    failures.append(
                        "%s:%d: schema tag %s is not a schema constant in src/repro "
                        "(known: %s)" % (relative, number, tag,
                                         ", ".join(sorted(constants)))
                    )
        print("ok: schema tags in %s" % relative)
    return failures


CHECKS = {
    "quickstart": run_quickstart,
    "service": run_service_quickstart,
    "links": check_links,
    "schemas": check_schema_tags,
}


def main():
    """Run the selected checks; exit non-zero when anything is broken."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only", choices=sorted(CHECKS),
        help="run a single check instead of all of them",
    )
    args = parser.parse_args()
    checks = [CHECKS[args.only]] if args.only else list(CHECKS.values())
    failures = []
    for check in checks:
        failures.extend(check())
    if failures:
        print("\n%d documentation failure(s):" % len(failures), file=sys.stderr)
        for failure in failures:
            print("  " + failure.replace("\n", "\n    "), file=sys.stderr)
        return 1
    print("documentation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
