#!/usr/bin/env python3
"""Digest every artifact that the pipeline writes for some configs.

    python3 scripts/artifact_digest.py CONFIG...

Runs `ncsynth run --unsafe` on each config into a temporary directory and
prints its exit code and one `sha256  <config>/<file>` line per artifact.
The exit code is that of the failing stage, and the set of artifacts shows
where the run stopped.  `--unsafe` only lets random-channel configs reach
the sim stage; it changes nothing for prolonged ones.  The stage manifests
(`*.manifest.json`) are left out, because they hold timings.

Two checkouts write the same bytes when their outputs are equal:

    python3 scripts/artifact_digest.py configs/*.json > new.txt
    (cd ../other && python3 scripts/artifact_digest.py ...) > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def digest(config):
    """Lines for one config: the run's exit code, then artifact hashes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryDirectory() as out:
        rc = subprocess.run(
            [sys.executable, "-m", "ncsynth.cli", "run", "--unsafe",
             "--config", config, "--out", out],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
        lines = [f"exit {rc}  {config}"]
        for path in sorted(Path(out).iterdir()):
            if path.is_file() and not path.name.endswith(".manifest.json"):
                h = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{h}  {config}/{path.name}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("configs", nargs="+", metavar="CONFIG")
    for config in ap.parse_args().configs:
        print("\n".join(digest(config)), flush=True)


if __name__ == "__main__":
    main()
