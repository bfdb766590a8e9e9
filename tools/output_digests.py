"""One sha256 per command-line case of a chemfv tree, for byte-identity checks.

    python tools/output_digests.py TREE

runs ``python -m chemfv`` from ``TREE/src`` on a copy of
``TREE/configs/example.ini``, once per case, in a temporary directory outside
the tree, and prints one ``case sha256`` line per case.  A digest covers the
exit code, stdout, stderr and the name and bytes of every output file; the
tree's ``src`` path in stdout and stderr (warning lines name their source
file) is replaced by ``<src>``, so two trees at different paths compare
equal.  Running ``diff`` on the output for two trees checks that they give
byte-identical outputs on every case.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_2D = ("grid.dim=2", "model.n=2")
_COSINE_V0 = "init.v0=cosine(amplitude=0.5, mode=1, floor=1)"
_COSINE_1D = ("model.mu=0.01", "grid.nx=64", _COSINE_V0)
_COSINE_2D = _2D + ("grid.nx=32", "grid.ny=32", "time.t_end=0.01", "monitor.cadence_steps=1",
                    _COSINE_V0)
_VERIFY_2D = _2D + ("grid.nx=64", "grid.ny=64", "oracle.trials=300")

# name -> (command, --set values, extra arguments)
CASES: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "certify": ("certify", (), ()),
    "run-1d": ("run", ("time.t_end=0.1",), ("--dump-fields",)),
    "run-2d": ("run", _2D + ("grid.ny=128", "model.m=1.5", "model.alpha=0.5",
                             "monitor.cadence_steps=1", "time.t_end=0.003"), ("--dump-fields",)),
    "run-example-t0.5": ("run", ("time.t_end=0.5",), ("--dump-fields",)),
    "run-cosine-1d-chi0-1": ("run", _COSINE_1D + ("model.chi0=1",), ()),
    "run-cosine-1d-chi0-5": ("run", _COSINE_1D + ("model.chi0=5",), ()),
    "run-cosine-2d-m1.5-alpha0.5": ("run", _COSINE_2D + ("model.m=1.5", "model.alpha=0.5"), ()),
    "run-cosine-2d-m0.8-alpha-0.5": ("run", _COSINE_2D + ("model.m=0.8", "model.alpha=-0.5"), ()),
    "sweep": ("sweep", (), ()),
    "verify": ("verify", (), ()),
    **{f"verify-2d-seed{seed}": ("verify", _VERIFY_2D, ("--seed", str(seed)))
       for seed in range(32)},
}


def digest(code: int, stdout: bytes, stderr: bytes, files: dict[str, bytes]) -> str:
    """sha256 of an exit code, both streams and ``files`` (relative name -> bytes)."""
    h = hashlib.sha256(f"exit {code}\n".encode())
    for name, data in [("<stdout>", stdout), ("<stderr>", stderr), *sorted(files.items())]:
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def run_case(tree: Path, name: str, work: Path) -> str:
    """Run case ``name`` of ``tree`` in the empty directory ``work``; its digest."""
    command, settings, extra = CASES[name]
    shutil.copyfile(tree / "configs" / "example.ini", work / "example.ini")
    argv = [sys.executable, "-m", "chemfv", command, "--config", "example.ini", "--out", "out"]
    for setting in settings:
        argv += ["--set", setting]
    src = str((tree / "src").resolve())
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv + list(extra), cwd=work, env=env, capture_output=True)
    out = work / "out"
    files = ({str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
             if out.is_dir() else {})
    return digest(proc.returncode, proc.stdout.replace(src.encode(), b"<src>"),
                  proc.stderr.replace(src.encode(), b"<src>"), files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="a chemfv checkout (with src/ and configs/)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            work = Path(tmp) / name
            work.mkdir()
            print(name, run_case(args.tree, name, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
