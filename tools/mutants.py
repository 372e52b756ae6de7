"""Single-constant mutants of the numeric contracts, and a runner that
checks whether tier-1 kills each one.

Each mutant changes one documented constant, index dtype or tie rule in
one source file.  ``--run`` copies the repository's src, tests and tools,
with README.md and pyproject.toml, to a temporary directory, applies the
mutant there and runs tier-1 on the copy without the four acceptance
criteria that fail by design (README "Known discrepancies").  The mutant
is killed when a test fails; the run stops at the first failure.  The
repository itself is never changed.  A surviving mutant takes one whole
tier-1 run, about 15 s on a 2-core machine.  Run from the repository root:

    python tools/mutants.py --list
    python tools/mutants.py --run RESIDUAL_FACTOR-1e-6
    python tools/mutants.py --run all

The exit status is 0 when every mutant run was killed, 1 when one
survived, and 2 when a mutant no longer matches its source line.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOCK = "src/ncphase/fock.py"
UNCERTAINTY = "src/ncphase/uncertainty.py"

# (name, file, source text, mutated text); each source text occurs once.
MUTANTS = (
    ("OVERLAP_FLOOR-0.45", FOCK, "OVERLAP_FLOOR = 0.5\n", "OVERLAP_FLOOR = 0.45\n"),
    ("diagonal-margin-3", FOCK, "basis.interior(4)", "basis.interior(3)"),
    ("STACK_BYTES-1", FOCK, "STACK_BYTES = 4 * 2**20\n", "STACK_BYTES = 1\n"),
    ("best-tie-last", FOCK, "weights.argmax(axis=0), weights.max(axis=0)",
     "len(weights) - 1 - weights[::-1].argmax(axis=0), weights.max(axis=0)"),
    ("ORACLE_TOLERANCE-1e-4", UNCERTAINTY, "ORACLE_TOLERANCE = 1e-8\n",
     "ORACLE_TOLERANCE = 1e-4\n"),
    ("RESIDUAL_FACTOR-1e-6", FOCK, "RESIDUAL_FACTOR = 1e-8\n", "RESIDUAL_FACTOR = 1e-6\n"),
    ("RESIDUAL_FACTOR-1e-12", FOCK, "RESIDUAL_FACTOR = 1e-8\n", "RESIDUAL_FACTOR = 1e-12\n"),
    ("_SERIES_RADIUS-5", UNCERTAINTY, "_SERIES_RADIUS = 10.0\n", "_SERIES_RADIUS = 5.0\n"),
    ("_SERIES_TERMS-8", UNCERTAINTY, "_SERIES_TERMS = 16\n", "_SERIES_TERMS = 8\n"),
    ("QUAD_TOLERANCE-1e-6", UNCERTAINTY, "QUAD_TOLERANCE = 1e-10\n", "QUAD_TOLERANCE = 1e-6\n"),
    ("DIAGONAL_TOLERANCE-1e-6", FOCK, "DIAGONAL_TOLERANCE = 1e-10\n",
     "DIAGONAL_TOLERANCE = 1e-6\n"),
    ("COMMUTING_TOLERANCE-1e-4", FOCK, "COMMUTING_TOLERANCE = 1e-8\n",
     "COMMUTING_TOLERANCE = 1e-4\n"),
    # The flat indices row * d + col must hold d * d.
    ("layout-index-int16", FOCK, "word.row.astype(np.intp)", "word.row.astype(np.int16)"),
    ("gather-index-int16", FOCK, "dtype = np.int32 if d * d", "dtype = np.int16 if d * d"),
)

BY_DESIGN = [
    f"tests/test_acceptance.py::test_criterion_{name}"
    for name in ("3_diagonal_identities", "4_spectrum_reproduction",
                 "5_second_order_scaling", "7_uncertainty_formulas")
]


def stale() -> list:
    """The names of the mutants whose source text is not in their file once."""
    return [name for name, path, old, _new in MUTANTS
            if (ROOT / path).read_text(encoding="utf-8").count(old) != 1]


def run(name: str, path: str, old: str, new: str) -> bool:
    """Run tier-1 on a mutated copy; print the outcome and return True if killed."""
    with tempfile.TemporaryDirectory() as workdir:
        copy = Path(workdir)
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("README.md", "pyproject.toml"):
            shutil.copy2(ROOT / part, copy / part)
        target = copy / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src")
        deselect = [arg for test in BY_DESIGN for arg in ("--deselect", test)]
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             *deselect],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    lines = result.stdout.splitlines()
    if result.returncode == 0:
        print(f"{name}: survived ({lines[-1].strip('= ')})", flush=True)
        return False
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    print(f"{name}: killed by {failed[0] if failed else lines[-1]}", flush=True)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print every mutant")
    parser.add_argument("--run", nargs="+", metavar="NAME",
                        help="run tier-1 against these mutants ('all' for every one)")
    args = parser.parse_args()
    names = [name for name, *_ in MUTANTS]
    if args.list:
        for name, path, old, new in MUTANTS:
            print(f"{name}\t{path}: {old.strip()!r} -> {new.strip()!r}")
    if not args.run:
        return 0
    chosen = names if args.run == ["all"] else args.run
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    broken = [name for name in stale() if name in chosen]
    if broken:
        print(f"source text not found once for: {', '.join(broken)}", file=sys.stderr)
        return 2
    killed = [run(*mutant) for mutant in MUTANTS if mutant[0] in chosen]
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main())
