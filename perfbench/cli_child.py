"""Traced stand-in for ``python -m surfloss.cli ARGS`` (cli-design, --trace 1).

Times the import of ``surfloss.cli``, then runs ``cli.main(ARGS)`` with the
layer wrappers installed and stdout and stderr captured.  Prints one JSON
object: the timestamps, the CLI's exit code and output, and the spans.
"""

import time

T_FIRST = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import surfloss.cli as cli  # noqa: E402

T_IMPORT = time.monotonic()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(sys.argv[1:])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    tracer.uninstall()
    json.dump({"t_first": T_FIRST, "t_import": T_IMPORT, "rc": rc,
               "stdout": out.getvalue(), "stderr": err.getvalue(),
               "spans": tracer.spans, "missing": tracer.missing}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
