"""Golden CLI outputs: each run's exit code and the sha256 of its stdout and
stderr, recorded from ``python -m twindual.cli`` and pinned byte for byte.

A refactor that claims to leave every report unchanged must pass this file
as it stands.  On a mismatch the test prints the run's output, so the
first differing line can be read off directly.  To re-record a pin after an
intended change of output, run the command by hand and hash its streams.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256(stdout), sha256(stderr)); every run gets its own
# temporary TWINDUAL_CACHE, so the action runs start from an empty cache
GOLDEN = [
    (("admissible", "--n", "4", "--q", "4"),
     0, "2b3831c08293d289e2008cf0ef888785cd7878a2e5293223554f32fb738aea3f", EMPTY),
    (("admissible", "--n", "4", "--approx", "2,1"),
     0, "678e253898de650f8caea44b09a229e72a724a37e47952626adb7d876060c2eb", EMPTY),
    (("admissible", "--n", "4", "--q", "1"),
     1, "d5f78fefefe144fd1c0ca90a234c00c91b7920e4608d7f7a606b31c484d0eb53", EMPTY),
    (("rep", "--n", "4", "--q", "4"),
     0, "fbd89b2a758e8330df354eace276537a5cd141943f894648c39ae952df995ba4", EMPTY),
    (("rep", "--n", "3", "--approx", "2,1"),
     0, "e772fec02ecc767ad75ee008f1e141d8b545290b73eb4e330b15c5350d6d0291", EMPTY),
    (("density", "--n", "4", "--q", "4", "--k-powers", "5"),
     0, "ea4c4feed2fc5fbdd1e1d7f35b8d52cec9ab1fac98ea3905d9df3dd0ced6ff7d", EMPTY),
    (("density", "--n", "4", "--approx", "2,1", "--k-powers", "5"),
     0, "9ed2abb3e373dff2bfd17829395536347cfbb52bf9ba409a1acf220171acb5b8", EMPTY),
    (("diagrams", "--r", "3", "--verify-presentation", "--scaling-check", "--list", "all"),
     0, "dba554c98d6d25e4793128a15cd36a90e2592b20a8c20a197fa727465747a977", EMPTY),
    (("action", "--n", "3", "--q", "4", "--r", "2", "--emit", "s:1", "--emit", "e:1", "--emit",
      "p:1", "--emit", "diagram:1-2',2-1'"),
     0, "51b7ae0604db4d32d376419d0816c5ad1209b34f6d91db04c61551493fafeafd", EMPTY),
    (("action", "--n", "3", "--q", "4", "--mode", "approx", "--r", "2", "--emit", "s:1",
      "--emit", "p:2"),
     0, "cb905c1beac359f868959c1322bfd8d7808bc85b3693bcec09c23173db787f74", EMPTY),
    (("duality", "--n", "4", "--q", "4", "--r", "2", "--center"),
     0, "71629de7d00662973b0c296ff4fbb5b80bc976f9b3d2c6be893d6aa25a77f1a1", EMPTY),
    (("duality", "--n", "3", "--q", "4", "--r", "3"),
     0, "97ab8cd0a43da40f406e9e5a2a727b0f0fbfd57f8d2c1b6a1948092c1f7054e5", EMPTY),
    (("duality", "--n", "4", "--q", "4", "--r", "2", "--mode", "approx", "--on", "F"),
     0, "0e911317ebb90ca01592ce93bc122a7f992fcc319db13814021b6abada9b86bd", EMPTY),
    (("duality", "--n", "3", "--approx", "2,1", "--r", "2"),
     0, "a33b1197635d53cb5a080c8ab6575f62400aa40b4eda1e7007da7d1ed2a3a86e", EMPTY),
    (("duality", "--n", "3", "--q", "4", "--r", "1,2", "--delta-prime", "1;85", "--output",
      "csv"),
     0, "06844e7bd73be89910031042693d3ad2b0d4a6e26ff6cdf24f3cfa90a7d0016f", EMPTY),
    (("duality", "--n", "3", "--q", "4", "--r", "1,2", "--delta-prime", "1;85", "--output",
      "pretty"),
     0, "ddabf93810f319e5ccc36d14885c6dd9bd4efb2ddf8907654a990486a423be24", EMPTY),
    (("duality", "--n", "3", "--q", "1", "--r", "2", "--force"),
     1, "b247ae1df2bc255cabd354f887f11d161cde0b838ee5cfd59bd5e9e664cb24b5", EMPTY),
    (("rep", "--n", "5", "--q", "9/4", "--output", "pretty"),
     0, "0df2d2f27fa5dbcfe4b5eb8d80b83eba446a8c36a3a0fb59bb7286624e85a020", EMPTY),
    (("density", "--n", "5", "--q", "9/4", "--check", "independence", "--check", "order"),
     0, "45938e671dd4f8c72525748e4cf13e483e69845ef4ecac6c7e098f89b4f20c7a", EMPTY),
    (("admissible", "--n", "3", "--approx=-0.5,0.866"),
     0, "3abf339778e952437e47fc0e411b4aaaed33d3a63c8833326272d036c21e9e00", EMPTY),
    (("rep", "--n", "4", "--q", "4", "--mode", "approx"),
     0, "0879cd43b75a83e1643e87925fbfa36d4192c009daaadf21e5d6e4e9d703c1a0", EMPTY),
    (("density", "--n", "4", "--q", "4", "--mode", "approx", "--k-powers", "5"),
     0, "77b87cf4991dba2a6761e0963d5e471437aeb5f82cd7d388efdfd8407bde6d80", EMPTY),
    (("duality", "--n", "4", "--q", "4", "--mode", "approx", "--r", "2", "--center"),
     0, "1dddb59b53987aaae3346619ffd626f349d571e36a8cf668c05bd1e7692f9fcb", EMPTY),
    (("duality", "--n", "4", "--q", "10201/10000", "--mode", "approx", "--r", "2"),
     0, "a923e0eefd0ff0db8418fe44282fa3345207dd8bbc45401361837fba5795bd82", EMPTY),
    (("duality", "--n", "3", "--approx", "2,1", "--r", "2", "--center"),
     0, "8a70665ea70a635283cefd4cbc9ec046639a9b032b2d4955037bcb6bc0c63e2d", EMPTY),
    (("duality", "--n", "4", "--q", "2", "--r", "2", "--mode", "approx"),
     0, "84b38d586cb44354def74d3fea7f0078b7580e33287534cc62795443141380a2", EMPTY),
    # the bench-grid commands no pin above covers
    (("duality", "--n", "5", "--q", "4", "--r", "2"),
     0, "8c51d7db92edb8f1db8621cadfce87a128407e5e4564d2c6348860b8d6d98ca6", EMPTY),
    (("duality", "--n", "5", "--q", "4", "--r", "2", "--on", "F"),
     0, "5e9b99175d717e66df6db26a905ee0083029ed29d07d56a86a3d4661fee9516b", EMPTY),
    (("duality", "--n", "4", "--q", "1002001/1000000", "--r", "2"),
     0, "091a2cd9c31a122e7034a58cdce5ec64f39c1c7581cb2efd7224d702166b6312", EMPTY),
    (("duality", "--n", "4", "--q", "4", "--r", "3", "--mode", "approx", "--delta-prime", "3"),
     0, "cf05a8e9e2b0f0b999ee56b0d43494c5f88353d8e3bc317a78536421175857d2", EMPTY),
    (("duality", "--n", "3", "--approx", "2,1", "--r", "3"),
     0, "9567fa61a251ac2a20ece96c29a11582cd970dfea511b7c5d028021c1fbe3b62", EMPTY),
    (("action", "--n", "4", "--q", "4", "--r", "3", "--delta-prime", "3", "--emit",
      "diagram:1-2,3-1',2',3'"),
     0, "4d5fe774615217b0c9d8e3a9322cbbb50a23b2a27461683ae72dfa6adc7f796c", EMPTY),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_golden(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env["TWINDUAL_CACHE"] = str(tmp_path / "cache")
    return subprocess.run([sys.executable, "-m", "twindual.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, check=False)


@pytest.mark.parametrize("argv,code,out_sha,err_sha", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_golden(tmp_path, argv, code, out_sha, err_sha):
    proc = run_golden(argv, tmp_path)
    got = (proc.returncode, _sha(proc.stdout), _sha(proc.stderr))
    assert got == (code, out_sha, err_sha), (
        f"exit {proc.returncode}\n--- stdout ---\n{proc.stdout.decode()}"
        f"\n--- stderr ---\n{proc.stderr.decode()}")
