#!/usr/bin/env python3
"""Entry point of the layer-ladder benchmark.

Run from the root of a hyperdex checkout:

    python3 ladderbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

It builds `hyperdex-server` and the benchmark binary in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
benchmark, whose last line of standard output is the JSON result. Build
output goes to standard error. See README.md beside this file.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def die(message):
    print(f"ladderbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    # Cargo reports on stderr; keep stdout for the result alone.
    done = subprocess.run(["cargo", "build", "--release", "--offline", *args],
                          cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        die(f"cargo build {' '.join(args)} failed")


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", ROOT / "stubs", BENCH):
        files += [p for p in top.rglob("*")
                  if p.is_file() and (p.suffix in (".rs", ".toml", ".lock", ".py"))]
    for path in sorted(set(files)):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    knobs = sorted(k for k in os.environ if k.startswith("HYPERDEX_"))
    if knobs:
        die(f"refusing to run with {', '.join(knobs)} set: the benchmark "
            "measures the program at its defaults")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "net").is_dir():
        die(f"{ROOT} is not a hyperdex checkout: the benchmark builds "
            "hyperdex-server from crates/net")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo_build(["-p", "hyperdex-net", "--bin", "hyperdex-server"], env)
    cargo_build(["--manifest-path", str(BENCH / "Cargo.toml")], env)
    server = target / "release" / "hyperdex-server"
    if not server.is_file():
        die(f"hyperdex-server binary missing at {server} after the build")
    exe = target / "release" / "ladderbench"
    done = subprocess.run([str(exe), *sys.argv[1:],
                           "--server-bin", str(server),
                           "--out-dir", str(target / "ladderbench"),
                           "--git-rev", git_rev(),
                           "--source-digest", source_digest()],
                          cwd=ROOT, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
