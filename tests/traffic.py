"""Line traffic through ``src/nahmpole``: ``python3 tests/traffic.py [--tier1]``.

Each workload of ``benchmarks/workloads.py`` (imported read-only: no bytecode
is written) is prepared with seed 0, warmed once and run for one cycle;
``--tier1`` also runs ``pytest.main(["-q", "tests"])`` in this process.  Each
kind of traffic is traced apart by ``sys.settrace``, restricted to the
package's files.  Per module it prints the executable lines (``co_lines`` of
every code object that makes a frame: module and class bodies run at import
and are not counted), how many each kind reached, and the lines neither
reached, grouped by function; with ``--tier1``, also the lines the tests
reach but no workload does, grouped alike: the code only tests keep.  Limit: a CLI call made in a subprocess (a test
running ``python -m nahmpole``) is not traced, so its lines read as unreached.
"""

import argparse
import inspect
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nahmpole"
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]


def traced(run):
    """The ``(file, line)`` pairs of the package that ``run()`` reaches."""
    seen, prefix = set(), str(PACKAGE)

    def local(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    run()
    sys.settrace(None)
    return seen


def executable(path):
    """``{line: qualified name}`` over the code objects that make a frame of their own."""
    lines, todo = {}, [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS:
            for *_, n in code.co_lines():
                if n is not None:
                    lines.setdefault(n, getattr(code, "co_qualname", code.co_name))
    return lines


def workloads():
    import workloads as W

    refs = W.load_refs()
    with tempfile.TemporaryDirectory() as out:
        for wl in W.WORKLOADS.values():
            prepared = wl.prepare(0, Path(out), refs)
            prepared.warmup()
            failed = [o.name for o in W.run_cycle(prepared.jobs)[0] if o.status != "ok"]
            print(f"# {wl.name}: {len(prepared.jobs)} jobs, failed {failed}")


def spans(lines):
    """``"3-5, 9"`` of a sorted list of line numbers."""
    runs = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def show(lines, numbers):
    """Print the sorted line ``numbers`` of a module grouped by the function
    that holds them, ``lines`` being its :func:`executable` map."""
    for name in dict.fromkeys(lines[n] for n in numbers):
        print(f"    {name}: {spans([n for n in numbers if lines[n] == name])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier1", action="store_true", help="also trace the tier-1 tests")
    args = parser.parse_args(argv)
    kinds = {"workloads": traced(workloads)}
    if args.tier1:
        kinds["tier-1"] = traced(lambda: pytest.main(["-q", str(ROOT / "tests")]))
    for path in sorted(PACKAGE.glob("*.py")):
        lines, key = executable(path), str(path)
        reached = {kind: {n for n in lines if (key, n) in seen} for kind, seen in kinds.items()}
        cold = sorted(set(lines).difference(*reached.values()))
        counts = ", ".join(f"{kind} {len(got)}" for kind, got in reached.items())
        print(f"{path.name}: {len(lines)} executable; reached by {counts}; neither {len(cold)}")
        show(lines, cold)
        if args.tier1:
            only = sorted(reached["tier-1"] - reached["workloads"])
            print(f"  {path.name}: reached by tier-1 but no workload {len(only)}")
            show(lines, only)


if __name__ == "__main__":
    main()
