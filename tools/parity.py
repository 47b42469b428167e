"""Bitwise parity of solver runs between the working tree and a git revision.

    python tools/parity.py --against REV [--quick]

Runs a fixed instance list in the working tree and in a copy of REV that
``git archive`` writes to a temporary directory (a local read of the
repository; nothing is fetched), each tree in its own process with every
BLAS and OpenMP pool on one thread. Each run starts from ``problem.x0``
and is digested field by field: the SHA-1 of x, the objective trace, nu,
``repr(iterations)`` (the per-iteration records, ``bisection_evals``
included), ``repr(final_terms)`` and the warnings. One row per instance
says ``bitwise`` when every digest matches, else the first field that
differs, with both trees' iteration counts and final objectives. The full
run also runs ``dfrcwave run`` and ``dfrcwave compare-majorizers`` on both
shipped configs with each tree's own CLI and configs, BLAS on one thread,
and adds one row: ``byte-identical`` when the two artifact trees are, else
the files that differ. The exit status is 0 when every row is bitwise and
the artifact trees are byte-identical, 1 otherwise.

The instance list: desk seeds 0-5; seeds 0-2 x ``gamma_db`` {0, 6, 10,
15} x ``m_psk`` {2, 4, 8} on the desk preset; N = 64 (``n_tx`` 8) seed 0;
``configs/convergence_compare.cfg`` seeds 0-3 with both majorizer kinds
(these 51 are the parity set); desk max-eigen dfrc at 300 iterations;
desk and N = 64 radar-only with full weights, desk P = 1 and L = 1
radar-only, each with both kinds; and N = 640 (the defaults) seed 0 at 200
iterations. ``--quick`` runs desk seeds 0-1 only, with no artifact row.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

#: Repository root: the directory that holds ``tools/``, ``src/`` and ``configs/``.
ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: The digested fields, in the order a difference is reported.
FIELDS = ("x", "trace", "nu", "iterations", "final_terms", "warnings")

KINDS = ("diagonal", "max_eigen")

#: (command, config under ``configs/``) of each CLI run whose artifacts the full run compares.
ARTIFACT_RUNS = tuple(
    (command, config)
    for config in ("desk.cfg", "convergence_compare.cfg")
    for command in ("run", "compare-majorizers")
)


def instance(name: str, base: str, **overrides) -> dict:
    """One run: ``base`` is ``desk`` (``ExperimentConfig.desk_preset``),
    ``defaults`` (``ExperimentConfig()``, N = 640) or a file under
    ``configs/``; ``overrides`` replace its fields."""
    return {"name": name, "base": base, "overrides": overrides}


def instances(quick: bool = False) -> list[dict]:
    if quick:
        return [instance(f"desk seed {s}", "desk", seed=s) for s in range(2)]
    rows = [instance(f"desk seed {s}", "desk", seed=s) for s in range(6)]
    rows += [
        instance(f"desk seed {s} gamma {g} dB m_psk {m}", "desk", seed=s, gamma_db=[g], m_psk=m)
        for s in range(3)
        for g in (0.0, 6.0, 10.0, 15.0)
        for m in (2, 4, 8)
    ]
    rows.append(instance("N=64 seed 0", "desk", n_tx=8))
    rows += [
        instance(f"compare-radar seed {s} {k}", "convergence_compare.cfg", seed=s, majorizer_kind=k)
        for s in range(4)
        for k in KINDS
    ]
    rows.append(instance("desk max_eigen 300 iterations", "desk", majorizer_kind="max_eigen",
                         max_outer_iters=300))
    for k in KINDS:
        rows += [
            instance(f"desk radar-only full weights {k}", "desk", mode="radar_only",
                     majorizer_kind=k),
            instance(f"N=64 radar-only full weights {k}", "desk", n_tx=8, mode="radar_only",
                     majorizer_kind=k),
            instance(f"desk P=1 {k}", "desk", max_lag=1, majorizer_kind=k),
            instance(f"L=1 radar-only {k}", "desk", block_len=1, max_lag=1, mode="radar_only",
                     majorizer_kind=k),
        ]
    rows.append(instance("N=640 seed 0 200 iterations", "defaults", max_outer_iters=200))
    return rows


def _digest(value) -> str:
    return hashlib.sha1(value if isinstance(value, bytes) else repr(value).encode()).hexdigest()


def run_instances(tree: Path, specs: list[dict]) -> list[dict]:
    """Solve every spec with the ``dfrcwave`` already imported from ``tree``."""
    import dataclasses

    import dfrcwave
    from dfrcwave import config, solver

    if not Path(dfrcwave.__file__).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"dfrcwave was imported from {dfrcwave.__file__}, not from {tree}")
    out = []
    for spec in specs:
        overrides = {k: tuple(v) if isinstance(v, list) else v
                     for k, v in spec["overrides"].items()}
        if spec["base"] == "desk":
            cfg = config.ExperimentConfig.desk_preset(**overrides)
        elif spec["base"] == "defaults":
            cfg = config.ExperimentConfig(**overrides)
        else:
            cfg = dataclasses.replace(
                config.config_from_file(tree / "configs" / spec["base"]), **overrides
            )
        problem = config.build_problem(cfg)
        state = solver.mm_solve(
            problem.scene, problem.comm, problem.weights, problem.solver,
            x0=problem.x0, p_total=problem.p_total,
        )
        fields = (
            state.x.tobytes(),
            state.objective_trace.tobytes(),
            None if state.nu is None else state.nu.tobytes(),
            state.iterations,
            state.final_terms,
            state.warnings,
        )
        out.append({
            "name": spec["name"],
            "digests": dict(zip(FIELDS, map(_digest, fields))),
            "iterations": state.outer_iterations,
            "objective": float(state.objective_trace[-1]) if state.iterations else None,
        })
    return out


def _worker(tree: Path) -> int:
    """Digest the specs read from stdin with ``tree``'s library; JSON to stdout."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "src"))
    specs = json.load(sys.stdin)
    json.dump(run_instances(tree, specs), sys.stdout)
    return 0


def _run(tree: Path, argv: list[str], stdin: str = "", **env) -> str:
    """``python argv`` in ``tree`` with ``env`` set, BLAS on one thread, and no
    other PYTHONPATH; returns its stdout, or raises RuntimeError when it fails."""
    full = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    full.update(dict.fromkeys(THREAD_VARS, "1"), PYTHONDONTWRITEBYTECODE="1", **env)
    proc = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True, text=True,
                          env=full, cwd=tree)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv)} on {tree} failed:\n{proc.stderr}")
    return proc.stdout


def digest_tree(tree: Path, specs: list[dict]) -> list[dict]:
    """Run ``specs`` on ``tree`` in a new process, BLAS on one thread."""
    argv = [str(Path(__file__).resolve()), "--worker", str(tree)]
    return json.loads(_run(tree, argv, json.dumps(specs)))


def write_artifacts(tree: Path, root: Path) -> None:
    """Run ``ARTIFACT_RUNS`` with ``tree``'s CLI and configs, writing under ``root``."""
    for command, config in ARTIFACT_RUNS:
        argv = ["-m", "dfrcwave.cli", command, str(tree / "configs" / config),
                "--output-root", str(root)]
        _run(tree, argv, PYTHONPATH=str(tree / "src"))


def differing_files(mine: Path, theirs: Path) -> list[str]:
    """Paths, relative and sorted, of the files under ``mine`` and ``theirs``
    that are not byte-identical or that only one of the two holds."""
    ours, others = (
        {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        for root in (mine, theirs)
    )
    return sorted(name for name in ours.keys() | others.keys()
                  if ours.get(name) != others.get(name))


def export_revision(rev: str, dest: Path) -> str:
    """Write ``git archive REV`` into ``dest``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it: plain files under dest only
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)
    return commit


ARTIFACTS_ROW = "artifacts of run and compare-majorizers"
IDENTICAL = "byte-identical"


def row(mine: dict, theirs: dict) -> str:
    """``bitwise``, or the first differing field with both runs' counts."""
    for field in FIELDS:
        if mine["digests"][field] != theirs["digests"][field]:
            return (
                f"differs in {field}: iterations {theirs['iterations']} -> {mine['iterations']}, "
                f"objective {theirs['objective']!r} -> {mine['objective']!r}"
            )
    return "bitwise"


def compare(rev: str, specs: list[dict], artifacts: bool = False) -> list[tuple[str, str]]:
    """(name, row) per spec, the working tree against ``rev``; with
    ``artifacts``, then one row for the artifact trees of ``ARTIFACT_RUNS``."""
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tree, out = Path(tmp) / "tree", Path(tmp) / "artifacts"
        export_revision(rev, tree)
        theirs = digest_tree(tree, specs)
        mine = digest_tree(ROOT, specs)
        rows = [(m["name"], row(m, t)) for m, t in zip(mine, theirs)]
        if artifacts:
            write_artifacts(tree, out / "theirs")
            write_artifacts(ROOT, out / "mine")
            differ = differing_files(out / "mine", out / "theirs")
            rows.append((ARTIFACTS_ROW, f"differ in {', '.join(differ)}" if differ
                         else IDENTICAL))
    return rows


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--worker"]:
        return _worker(Path(argv[1]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare the working tree with")
    parser.add_argument("--quick", action="store_true", help="desk seeds 0-1 only")
    args = parser.parse_args(argv)
    rows = compare(args.against, instances(args.quick), artifacts=not args.quick)
    width = max(len(name) for name, _ in rows)
    for name, verdict in rows:
        print(f"{name:<{width}}  {verdict}")
    solves = [verdict for name, verdict in rows if name != ARTIFACTS_ROW]
    print(f"{solves.count('bitwise')} of {len(solves)} rows bitwise against {args.against}")
    return 0 if all(verdict in ("bitwise", IDENTICAL) for _, verdict in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
