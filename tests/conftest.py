import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphereflows
from sphereflows import CombinatorialMap
from sphereflows.combmap import sphere_failures

from oracles import perm_from_cycles


def package_env(**env):
    """``os.environ`` plus ``env``, with ``PYTHONPATH`` an absolute path to
    this package, so that a child process imports it from any cwd."""
    return dict(os.environ, **env,
                PYTHONPATH=str(Path(sphereflows.__file__).resolve().parent.parent))


def run_cli(*args, cwd=None, stdout=subprocess.PIPE, check=False, **env):
    """Run ``python -m sphereflows *args`` in a child process, with ``env``
    added to its environment; stderr, and stdout unless redirected, are
    captured as text."""
    return subprocess.run([sys.executable, "-m", "sphereflows", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          cwd=cwd, check=check, env=package_env(**env))


def build_named_maps():
    """The hand-built graphs named in the published census, by description."""
    maps = {
        "segment": CombinatorialMap((0, 1)),
        "loop": CombinatorialMap((1, 0)),
        "double_edge": CombinatorialMap((2, 3, 0, 1)),
        "chain2": CombinatorialMap((0, 2, 1, 3)),
        "segment_loop": CombinatorialMap((0, 2, 3, 1)),
        "two_loops": CombinatorialMap((1, 2, 3, 0)),
        "chain3": CombinatorialMap((0, 2, 1, 4, 3, 5)),
        "star3": CombinatorialMap((2, 1, 4, 3, 0, 5)),
        "triangle": CombinatorialMap(perm_from_cycles(6, [(0, 5), (1, 2), (3, 4)])),
        "chain_end_loop": CombinatorialMap((0, 2, 1, 4, 5, 3)),
        "bigon_tail": CombinatorialMap(perm_from_cycles(6, [(0, 2), (1, 3, 4)])),
        "midloop_lobe": CombinatorialMap(perm_from_cycles(6, [(4, 5, 1, 2)])),
        "midloop_split": CombinatorialMap(perm_from_cycles(6, [(4, 1, 5, 2)])),
    }
    maps["theta"] = maps["triangle"].dual()
    for name, m in maps.items():
        assert not sphere_failures(m.sigma), name
    return maps


@pytest.fixture(scope="session")
def named():
    return build_named_maps()
