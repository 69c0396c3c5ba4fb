"""Run one mbparse CLI command in this process and record what it cost.

    python3 perfbench/child.py RESULT.json [--stdout FILE] [--spans FILE] -- ARGV...

Writes RESULT.json with the command's exit status (or the exception it
raised), its wall and CPU time, the import time of the package, the wall time of
each bundle load inside the command and the process's peak RSS.  With
``--spans`` the command runs traced: spans go to FILE and their summary
into the result.  The package is not installed, so this calls
``mbparse.cli.run_command`` itself instead of running the module.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from mbparse import bundles, cli  # noqa: E402

IMPORT_S = time.perf_counter() - START

_LOADERS = ("load_chunker", "load_full_parser")  # the tag commands' loaders


def _time_bundle_loads(loads: list) -> None:
    """Append the wall time of every bundle load to ``loads``."""
    for name in _LOADERS:
        def timed(*args, _load=getattr(bundles, name), **kwargs):
            start = time.perf_counter()
            try:
                return _load(*args, **kwargs)
            finally:
                loads.append(time.perf_counter() - start)

        setattr(bundles, name, timed)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("result")
    ap.add_argument("--stdout", help="file for the command's standard output")
    ap.add_argument("--spans", help="trace the command; write its spans here")
    own = sys.argv[1:]
    if "--" not in own:
        ap.error("the CLI command follows --")
    cut = own.index("--")
    args = ap.parse_args(own[:cut])
    argv = own[cut + 1:]

    loads: list[float] = []
    _time_bundle_loads(loads)
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(argv[0])
        tracer.install()

    status, error = None, None
    out_path = args.stdout or os.devnull
    with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            status = cli.run_command(argv)
        except Exception as exc:  # the caller counts it as a failed operation
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu

    result = {
        "argv": argv,
        "status": status,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "import_s": IMPORT_S,
        "load_s": loads,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
