"""Traced launch of the kleinstep CLI: python3 -X importtime tracer.py SPANS_PATH ARGS...

Runs ``kleinstep.cli.main(ARGS)`` twice in one fresh interpreter: first
untraced, then with every public function of every kleinstep module (the
names in each module's ``__all__``) and ``numpy.linalg.solve`` wrapped in a
span recorder.  A wrapper replaces the function in every kleinstep module
namespace that holds it, so cross-module and intra-module calls are both
recorded.  The CLI's render, emit and main steps are wrapped too.

Spans (name, start, end, parent, raised) stay in memory and are written to
SPANS_PATH at the end, with the timings the parent needs.  The untraced
output is printed to stdout; the exit code is the CLI's.  Both runs must
produce identical bytes; the result says whether they did.
"""

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from array import array  # noqa: E402


def _output_path(argv):
    for arg in argv:
        if arg.startswith("--output="):
            return arg.split("=", 1)[1]
    return None


def _run(main, argv):
    """main(argv) with stdout captured: (exit code, seconds, stdout text, output bytes)."""
    saved, sys.stdout = sys.stdout, io.StringIO()
    try:
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        text = sys.stdout.getvalue()
    finally:
        sys.stdout = saved
    path = _output_path(argv)
    if path is not None and code == 0:
        with open(path, "rb") as handle:
            return code, elapsed, text, handle.read()
    return code, elapsed, text, text.encode("utf-8")


class Recorder:
    """Span columns, appended in call order; a span's parent is its index."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = []

    def wrap(self, fn, name):
        ident = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name_id)
            self.name_id.append(ident)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.raised.append(0)
            self.end.append(0.0)
            self.stack.append(index)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[index] = 1
                raise
            finally:
                self.end[index] = time.perf_counter()
                self.stack.pop()

        return traced


def install(recorder):
    """Wrap the public kleinstep functions and numpy.linalg.solve; return the cli module."""
    import numpy
    import kleinstep.cli as cli

    modules = [m for name, m in sys.modules.items()
               if name == "kleinstep" or name.startswith("kleinstep.")]
    targets = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                layer = module.__name__.rsplit(".", 1)[-1]
                targets[obj] = f"{layer}.{name}"
    for name in ("render_csv", "render_json", "emit"):
        targets[getattr(cli, name)] = f"cli.{name}"
    wrapped = {fn: recorder.wrap(fn, span) for fn, span in targets.items()}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                setattr(module, attr, wrapped[value])
    numpy.linalg.solve = recorder.wrap(numpy.linalg.solve, "linalg.solve")
    return cli


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import kleinstep.cli

    code, plain_s, plain_text, plain_bytes = _run(kleinstep.cli.main, argv)

    recorder = Recorder()
    cli = install(recorder)
    traced_code, traced_s, _, traced_bytes = _run(cli.main, argv)

    with open(spans_path + ".bin", "wb") as handle:
        for column in (recorder.name_id, recorder.parent, recorder.raised,
                       recorder.start, recorder.end):
            column.tofile(handle)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({
            "t_start": T_START, "plain_s": plain_s,
            "traced_s": traced_s, "identical": (code, plain_bytes) == (traced_code, traced_bytes),
            "names": recorder.names, "spans": len(recorder.name_id),
        }, handle)
    sys.stdout.write(plain_text)
    return code


if __name__ == "__main__":
    sys.exit(main())
