"""Digests of the CLI's output: ``python3 tests/output_digests.py [SRC]``.

Runs ``nahmpole.cli.main`` in this process, with stdout and stderr captured,
and prints as sorted JSON the sha256 of ``(exit code, stdout, stderr)`` for

* ``expand`` at N=12 on flat, round-s3, hyperbolic-h3, h2xr and berger-s3 at
  squash 2, 5 and 3/7, in each format (json, csv, pretty) and in rational,
  64-bit and 128-bit float scalars (63 runs);
* json ``expand`` at N=24 on berger-s3 at squash 3/7 and 2, in 64-bit and
  128-bit float scalars (4 runs): squash 3/7's float frame is not its exact
  frame rounded once, so these rows watch the float frame route at depth;
* each ``verify`` suite;
* ``ode-compare`` on s3, hyperbolic and flat with its defaults: the last two watch
  the constant profile ``fA = 1`` at the CLI;
* ``backgrounds``;

76 runs in all.

``SRC`` is the directory that ``nahmpole`` is imported from, by default this
checkout's ``src``.  To check that a change moves no output byte, run it on
both trees and compare::

    python3 tests/output_digests.py > after.json
    python3 tests/output_digests.py OTHER/src > before.json
    diff before.json after.json

It is not a test module (no ``test_`` prefix), so pytest does not collect it;
it uses the standard library and the package, and writes no bytecode.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BACKGROUNDS = ("flat", "round-s3", "hyperbolic-h3", "h2xr", "berger-s3?squash=2",
               "berger-s3?squash=5", "berger-s3?squash=3/7")
SCALARS = {"rational": ["--scalar", "rational"], "64": ["--scalar", "float", "--prec", "64"],
           "128": ["--scalar", "float", "--prec", "128"]}
SUITES = ("s3", "hyperbolic", "flat", "identities", "einstein-catalog")


def runs():
    """``{label: argv}`` of every CLI run digested."""
    out = {f"expand {bg} {fmt} {scalar}": ["expand", "--background", f"builtin:{bg}",
                                           "--order", "12", "--format", fmt, *flags]
           for bg in BACKGROUNDS for fmt in ("json", "csv", "pretty")
           for scalar, flags in SCALARS.items()}
    out.update({f"expand {bg} json {scalar} N=24": [
        "expand", "--background", f"builtin:{bg}", "--order", "24", "--format", "json",
        *SCALARS[scalar]] for bg in ("berger-s3?squash=3/7", "berger-s3?squash=2")
        for scalar in ("64", "128")})
    out.update({f"verify {suite}": ["verify", suite] for suite in SUITES})
    out.update({f"ode-compare {name}": ["ode-compare", name]
                for name in ("s3", "hyperbolic", "flat")})
    out["backgrounds"] = ["backgrounds"]
    return out


def digest(main, argv):
    """The sha256 of ``main(argv)``'s exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, stdout.getvalue(), stderr.getvalue()])
                          .encode()).hexdigest()


def main():
    src = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from nahmpole import cli

    print(json.dumps({label: digest(cli.main, argv) for label, argv in runs().items()},
                     indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
