#!/usr/bin/env python3
"""Build and run the pjsb end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> [--seed N] [--seconds S]
                            [--trace 0|1]

Workloads: batch_conservative, batch_easy_traced, daemon_mixed (see
e2ebench/layers.json for what each one stresses). The script builds the
pjsb library and the e2ebench binary from source in Release mode under
$CARGO_TARGET_DIR (default .bench_build), runs the binary, and passes its
output through: the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. A full result document stamped
with the host, compiler, build type and commit is written to
<build dir>/e2ebench/results/. The exit status is nonzero when the
sources are missing, the build fails, or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch_conservative", "batch_easy_traced", "daemon_mixed")
DEFAULT_SEED = 20240612
RUN_TIMEOUT_S = 170


def log(*parts):
    print("e2ebench:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "e2ebench"


def git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        if Path(top).resolve() != ROOT:
            return "unknown"
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over every file under src/ (path and bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("the pjsb sources (CMakeLists.txt, src/) are not next to",
            HERE.name)
        return 2

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "e2ebench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed:", error)
        return 2

    pins = json.loads((HERE / "pins.json").read_text())
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(build_dir / "work" / args.workload),
        "--out", str(build_dir / "results" /
                     f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "--commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    pin = pins["decisions_sha256"].get(args.workload)
    if pin and args.seed == pins["seed"]:
        command += ["--pin", pin]
    (build_dir / "results").mkdir(parents=True, exist_ok=True)

    # On SIGTERM/SIGINT, or past the time limit, stop the binary and wait
    # for it before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
