"""Regenerate the committed references under ``refs/`` from the package.

Run from the repository root at the baseline commit::

    PYTHONPATH=src python3 benchmarks/make_refs.py

It writes ``refs/tables/*.json`` (the rational N=12 tables, as ``nahmpole
expand --format json`` prints them) and ``refs/references.json``: the sha256
of every expand-exact output, of the default-seed free-data outputs and of
the ``ode-compare s3`` CSV, plus the flow deviations the accuracy gates are
derived from.  Rerunning it on a later commit would hide output changes, so
only do so when the canonical output is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402


def _expand(argv):
    code, out, err = W.call_cli(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} failed: {err.strip()}")
    return out, err


def main() -> None:
    refs = {"default_seed": W.DEFAULT_SEED, "expand": {}, "expand_free": {},
            "flow_deviation": {}}
    tables_dir = W.REFS_DIR / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    for bg in W.BUILTINS:
        for n in W.EXACT_ORDERS:
            out, _ = _expand(["expand", "--background", f"builtin:{bg}",
                              "--order", str(n), "--format", "json"])
            refs["expand"][W.expand_name(bg, n)] = W.sha256(out)
    for bg in dict.fromkeys(W.BUILTINS + W.FLOAT_BACKGROUNDS):
        out, _ = _expand(["expand", "--background", f"builtin:{bg}",
                          "--order", "12", "--format", "json"])
        W.table_path(bg).write_text(out)

    free = W.REFS_DIR / "free-data-default.json"
    free.write_text(json.dumps(W.free_data_doc(W.DEFAULT_SEED)))
    try:
        for bg in W.FREE_DATA_BACKGROUNDS:
            out, _ = _expand(["expand", "--background", f"builtin:{bg}",
                              "--order", "12", "--format", "json",
                              "--free-data", str(free)])
            reason = W.structural_failure(out, bg)
            if reason:
                raise SystemExit(f"free-data table on {bg}: {reason}")
            refs["expand_free"][W.free_name(bg, 12)] = W.sha256(out)
    finally:
        free.unlink()

    out, err = _expand(["ode-compare", "s3"])
    refs["ode_compare_s3"] = W.sha256(out)
    refs["flow_deviation"]["ode-compare s3"] = float(
        W._ODE_DEV.search(err).group(1))
    for name in ("s3", "hyperbolic"):
        bg, init, ref = W.flow_start(name)
        traj = W.oracle.integrate_flow(bg, init, W.FLOW_Y1, tol=W.FLOW_TOL)
        refs["flow_deviation"][name] = W.state_deviation(traj[-1], ref)
        if name == "s3":
            traj = W.oracle.integrate_flow(bg, init, W.FLOW_Y1,
                                           fixed_step=W.FIXED_STEP)
            refs["flow_deviation"]["s3-fixed"] = W.state_deviation(
                traj[-1], ref)
    (W.REFS_DIR / "references.json").write_text(
        json.dumps(refs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
