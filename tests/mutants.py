"""Run one-line mutants of the package against the tests; report survivors.

Usage: ``python tests/mutants.py [NAME ...]`` (every mutant when no name is
given).  Each mutant replaces one line of a module under
``src/sphereflows/``.  For each, the checkout is copied to a temporary
directory, the mutant is applied there, and ``pytest -x tests`` runs in the
copy with the byte-digest test deselected, so that only tests that reason
about the output can kill it.  A first run without a mutant must pass.
Nothing is written in the checkout, and no mutation package is used.

Pytest does not collect this file.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_TEST = "tests/test_catalog_cli.py::test_outputs_match_benchmark_digests"
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".censusbench")

# name, module, the exact text of the line's mutated part, its replacement
MUTANTS = (
    ("t-upper-out-right-of-p", "realize.py",
     'Separatrix(upper, point["face"][m.face_index[p]], p)',
     'Separatrix(upper, point["face"][m.face_index[p ^ 1]], p)'),
    ("t-lower-free-off-b", "realize.py",
     "(in_a, out_a), (in_b, _), (in_far, out_far) = (",
     "(in_a, _), (in_b, out_a), (in_far, out_far) = ("),
    ("dart-out-anchored-at-partner", "realize.py",
     'out = Separatrix(s, point["face"][m.face_index[d]], d)',
     'out = Separatrix(s, point["face"][m.face_index[d]], d ^ 1)'),
    ("saddle-node-far-and-d0-swapped", "realize.py",
     "for d in (far, d0))", "for d in (d0, far))"),
    ("check-source-to-sink-unbarred", "realize.py",
     'if kinds[s] == "source" and kinds[t] == "sink":',
     'if kinds[s] == "source" and kinds[t] == "source":'),
    ("check-hyperbolic-in-by-target", "realize.py",
     'hyper_in[t] += kinds[s] != "saddle"',
     'hyper_in[t] += kinds[t] != "saddle"'),
    ("check-all-separatrices-counted", "realize.py",
     "i, o = found[2:] if hyperbolic else found[:2]",
     "i, o = found[:2]"),
    ("check-saddle-node-any-out", "realize.py",
     '"saddle-node-source": (True, 1, 2),',
     '"saddle-node-source": (True, 1, None),'),
    ("check-missing-saddle-node-allowed", "realize.py",
     "if n_sn != 1:", "if n_sn > 1:"),
    ("check-one-cycle-point-allowed", "realize.py",
     "if len(peeled) != len(self.points):",
     "if len(peeled) < len(self.points) - 1:"),
)


def pytest_in(copy):
    """Run the tests in ``copy``: (passed, the first failing test)."""
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "tests", "--deselect", DIGEST_TEST],
        cwd=copy, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(copy / "src")))
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", res.stdout, re.M)
    return res.returncode == 0, first.group(1) if first else res.stdout[-200:]


def run(mutant=None):
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if mutant is not None:
            _, module, old, new = mutant
            path = copy / "src" / "sphereflows" / module
            text = path.read_text()
            if text.count(old) != 1:
                sys.exit(f"{mutant[0]}: {old!r} is not one place in {module}")
            path.write_text(text.replace(old, new))
        return pytest_in(copy)


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    passed, first = run()
    if not passed:
        sys.exit(f"the unmutated tests fail: {first}")
    survivors = 0
    for mutant in MUTANTS:
        if names and mutant[0] not in names:
            continue
        passed, first = run(mutant)
        survivors += passed
        print(f"{'survived' if passed else 'killed':<9} {mutant[0]:<34} "
              f"{'' if passed else first}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
