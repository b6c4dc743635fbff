#!/usr/bin/env python3
"""Bad-flag gate for the bench and example binaries.

Runs each BINARY with FLAG given as a bare switch followed by a separate
value (`BINARY --lgmin 16`, the form util::Cli rejects for numeric flags)
and requires a clean usage error: exit status 2, the flag named on
stderr, and no std::terminate report.

Usage: tools/check_bad_flag.py BINARY FLAG [BINARY FLAG ...]
Exit codes: 0 every binary rejected its flag cleanly, 1 one did not,
2 bad arguments.
"""

import subprocess
import sys

TIMEOUT_S = 60


def check(binary, flag):
    """Returns an error message, or None when the binary ends cleanly."""
    try:
        proc = subprocess.run([binary, flag, "16"], capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"{binary} {flag}: {e}"
    if proc.returncode != 2:
        return f"{binary} {flag}: exit status {proc.returncode}, want 2"
    if flag not in proc.stderr:
        return f"{binary} {flag}: stderr does not name the flag: {proc.stderr.strip()!r}"
    if "terminate" in proc.stderr:
        return f"{binary} {flag}: ended in std::terminate"
    return None


def main(argv):
    if not argv or len(argv) % 2 != 0:
        print(__doc__, file=sys.stderr)
        return 2
    failures = [msg for msg in (check(b, f) for b, f in zip(argv[::2], argv[1::2])) if msg]
    for msg in failures:
        print(msg, file=sys.stderr)
    print(f"{len(argv) // 2 - len(failures)}/{len(argv) // 2} binaries rejected their flag")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
