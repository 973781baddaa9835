"""Run the `sfvda` command in a child process against this checkout.

The child gets the absolute `src/` directory first on its `PYTHONPATH`, so
it imports the package under test whatever its working directory is and
whether or not the package is installed; entries the caller already had
follow it. ``env`` maps variables to set in the child's environment, where
a value of None removes the variable."""

import os
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def child_env(env=None):
    child = dict(os.environ)
    for key, value in (env or {}).items():
        if value is None:
            child.pop(key, None)
        else:
            child[key] = value
    child["PYTHONPATH"] = SRC + (os.pathsep + child["PYTHONPATH"] if child.get("PYTHONPATH") else "")
    return child


def run_sfvda(*args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sfvda", *args],
        cwd=cwd,
        env=child_env(env),
        capture_output=True,
        text=True,
    )
