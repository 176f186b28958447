"""Digest every output of the command line program, for "same bytes" checks.

Run ``python tests/output_digests.py > digests.txt`` in two checkouts and
``diff`` the two files.  The script runs ``python -m sphereflows`` on the
package under ``src/`` of the checkout it sits in, each command in a fresh
temporary directory, and prints one line per command: a SHA-256 over the
exit code, stdout, stderr and every file the command wrote, then the
command.  The ranges come from the package's own limits, so a checkout
with other limits lists other commands; each count one past its range is
run too.  Exports read the catalogs that the benchmark's export workload
reads, built by the same program beforehand.  Nothing is written in the
checkout.

Pytest does not collect this file.
"""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from sphereflows.generate import MAX_EDGES, MIN_EDGES
from sphereflows.marks import MAX_SADDLES, SN_MIN_SADDLES, T_MIN_SADDLES

BRUTE_MAX_EDGES = 4
MODES = ((), ("--no-reflections",))
FORMATS = ("json", "dot", "diagram-json")
# the export workload's catalogs: build arguments and the file they write
EXPORT_CATALOGS = (
    (("maps", "5"), "maps-e5.json"),
    (("bifurcations", "saddle-node", "4"), "bifurcations-saddle-node-n4.json"),
    (("bifurcations", "saddle-connection", "4"),
     "bifurcations-saddle-connection-n4.json"),
)


def run(args, workdir):
    """Run the program in ``workdir``; the digest of what it did."""
    before = {p: p.read_bytes() for p in workdir.iterdir()}
    res = subprocess.run([sys.executable, "-m", "sphereflows", *args],
                         cwd=workdir, capture_output=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC),
                                  PYTHONDONTWRITEBYTECODE="1"))
    h = hashlib.sha256()
    parts = [str(res.returncode).encode(), res.stdout, res.stderr]
    for path in sorted(workdir.iterdir()):
        if before.get(path) != path.read_bytes():
            parts += [path.name.encode(), path.read_bytes()]
    for part in parts:
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


def report(args, files=(), label=""):
    """Run ``args`` in a fresh directory holding copies of ``files``."""
    with tempfile.TemporaryDirectory() as tmp:
        for f in files:
            shutil.copy(f, tmp)
        print(run(args, Path(tmp)), shlex.join(args) + label, flush=True)


def main():
    report(("--help",))
    for sub in ("maps", "bifurcations", "verify-paper", "export"):
        report((sub, "--help"))
    for mode in MODES:
        for e in range(MIN_EDGES - 1, MAX_EDGES + 2):
            report(("maps", str(e), *mode))
        for e in range(MIN_EDGES, BRUTE_MAX_EDGES + 1):
            report(("maps", str(e), "--strategy", "brute", *mode))
        for kind, low in (("saddle-node", SN_MIN_SADDLES),
                          ("saddle-connection", T_MIN_SADDLES)):
            for n in range(low - 1, MAX_SADDLES + 2):
                report(("bifurcations", kind, str(n), *mode))
        report(("verify-paper", *mode))
        with tempfile.TemporaryDirectory() as tmp:
            paths, firsts = [], []
            for args, name in EXPORT_CATALOGS:
                run((*args, *mode), Path(tmp))
                paths.append(Path(tmp, name))
                firsts.append(json.loads(paths[-1].read_text())
                              ["entries"][0]["code"])
            for i, (args, name) in enumerate(EXPORT_CATALOGS):
                # a miss asks for the first code of the next catalog
                label = f"  # catalog: {shlex.join((*args, *mode))}"
                for fmt in FORMATS:
                    for lookup in ((), ("--code", firsts[i]),
                                   ("--code", firsts[(i + 1) % len(firsts)])):
                        report(("export", name, *lookup, "--format", fmt),
                               [paths[i]], label)


if __name__ == "__main__":
    main()
