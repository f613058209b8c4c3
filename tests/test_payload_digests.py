"""The payload contract: sha256 prefixes of 25 fixed CLI runs.

All runs share one subprocess with single-threaded BLAS.  The two coefficient
dumps are hashed from their files, every other case from stdout.  A change
that alters a payload on purpose updates its prefix here and says so in
CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# (sha256 prefix, exit code, argv); DUMP stands for the coefficient dump path
CASES = [
    ("d04efab062ca1bf6", 0, "discretize --q const:0 --n 2"),
    ("5e33e50f3bfbb6ba", 0, "discretize --q const:0 --n-list 16,32,64 --format csv"),
    ("9aca1d10b31b101b", 0, "discretize --q const:0 --n-list 64,128,256,512,1024"),
    ("cee912fa018a0d0b", 0, "eigensolve --q const:0.5 --n 16 --format csv"),
    ("39e9a3e530fb653c", 0, "eigensolve --q poly:0.5,0.1,-0.05 --n 300 --vectors"),
    ("fe2ed610a7bae3ee", 0, "eigensolve --q const:0.5 --n 64"),
    ("73e0e70d8b6085e5", 0, "freq-audit --powers 1,3 --format json"),
    ("d3d99f6bc0188be2", 0, "freq-audit --powers 1,3,9 --format json"),
    ("ccb59ef4bf49e66a", 0, "freq-audit --powers 1,3,9 --format csv"),
    ("46b1166b6f9441e1", 0, "freq-audit --pe-T 6 --n 16 --format json"),
    ("03ad3e0dd911abb3", 0, "freq-audit --pe-T 7 --n 16 --dump-coefficients DUMP"),
    ("e3971627994c7371", 0, "freq-audit --pe-T 8 --n 4 --dump-coefficients DUMP"),
    ("e20b8d70842fa621", 0, "error-sweep --T-range 4:6 --n 64 --grid 16"),
    ("9bb7a8cf1507bf6d", 0, "error-sweep --T-range 4:6 --n 64 --grid 16 --format json"),
    ("753a149bddda188a", 0, "error-sweep --T-range 4:12 --grid 64"),
    ("455bc098cf44c4d5", 0,
     "phase-estimate --q const:0.5 --n 128 --T 10 --epsilon 1e-3 --format json"),
    ("c1093ad7468dcae6", 0, "phase-estimate --q const:0.5 --n 128 --T 10 --epsilon 1e-3 "
                            "--mode perturbed:0.95 --seed 3 --samples 64 --format csv"),
    ("d37a826406d72a13", 0, "phase-estimate --q const:0.5 --n 128 --T 10 --epsilon 1e-3 "
                            "--mode perturbed:0.95 --seed 3 --samples 64 --format json"),
    ("dc130838555f880c", 0, "phase-estimate --q poly:0.1,0.2,0.05 --n 128 --T 10 "
                            "--epsilon 0.01 --mode perturbed:0.95"),
    ("4f3c01423e0cacf6", 0, "phase-estimate --q poly:0.1,0.2,0.05 --n 64 --T 8 --epsilon 0.01"),
    ("7c64c5dd44f0959f", 0, "lowerbound-audit --T 8 --n 32 --epsilon auto"),
    ("10ee3581b95553b8", 0, "lowerbound-audit --T 9 --n 16 --epsilon auto"),
    ("453d46a026ce1880", 0, "lowerbound-audit --T 11 --n 1 --epsilon auto"),
    ("bae5952419221069", 0, "lowerbound-audit --T 5 --n 4 --epsilon 0.3"),
    ("914cbe29cce3bf5e", 2, "lowerbound-audit --T 7 --n 8 --lambda-map continuum"),
]

RUNNER = """
import contextlib, hashlib, io, json, sys
from powerquery.cli import main
for argv, dump in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    data = open(dump, "rb").read() if dump else out.getvalue().encode()
    print(json.dumps([code, hashlib.sha256(data).hexdigest()[:16]]))
"""


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    dump = str(tmp_path_factory.mktemp("dump") / "coefficients.csv")
    runs = [([dump if a == "DUMP" else a for a in argv.split()], dump if "DUMP" in argv else None)
            for _, _, argv in CASES]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(runs),
                          capture_output=True, text=True, env=env, check=True)
    return dict(zip((argv for _, _, argv in CASES),
                    (tuple(json.loads(line)) for line in proc.stdout.splitlines())))


@pytest.mark.parametrize("prefix, code, argv", CASES, ids=[argv for _, _, argv in CASES])
def test_payload_digest(digests, prefix, code, argv):
    assert digests[argv] == (code, prefix)
