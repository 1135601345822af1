"""What a fresh interpreter loads: the exact routes and the spectrum start without numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

from zigzagsums import cli

# Commands that build no array: exact integer, Fraction or pi-multiple work,
# the closed-form spectrum and the lattice-count trace.
NO_NUMPY_COMMANDS = [
    ["tables"],
    ["sums", "5"],
    ["zigzag", "10", "--cyclic"],
    ["bernoulli", "20"],
    ["euler", "10"],
    ["bernoulli", "2062"],
    ["euler", "1658"],
    ["ratio-limit", "6"],
    ["g-eval", "0.5"],
    ["volume", "cyclic", "6", "exact"],
    ["volume", "chain", "7", "extensions"],
    ["spectrum", "--grid", "100", "--top", "3"],
    ["volume", "cyclic", "2", "spectral", "--grid", "50"],
]

# The modules benchmark/spans.py reads from sys.modules when it traces.
TRACED_MODULES = [
    "special_numbers", "euler_sums", "exact_arith", "spectral_operator",
    "polytope_lab", "report", "cli",
]

# Runs each command line of argv[1] (JSON) through cli.main in one process and
# prints, after the imports and after each command, whether numpy is loaded.
SCRIPT = """
import contextlib, io, json, sys
import zigzagsums, zigzagsums.cli
loaded = {"import": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = zigzagsums.cli.main(argv)
    loaded[" ".join(argv)] = (code, "numpy" in sys.modules)
loaded["modules"] = sorted(m for m in sys.modules if m.startswith("zigzagsums."))
print(json.dumps(loaded))
"""


def _fresh(commands):
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop(cli.CONFIG_ENV, None)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_without_arrays_do_not_load_numpy():
    dense = ["verify", "spectral", "--grid", "400"]
    loaded = _fresh([*NO_NUMPY_COMMANDS, dense])
    assert loaded.pop("import") is False
    for argv in NO_NUMPY_COMMANDS:
        assert loaded[" ".join(argv)] == [0, False], argv
    # the check can see numpy: verify's dense traces build arrays
    assert loaded[" ".join(dense)] == [0, True]


def test_import_loads_every_traced_module():
    loaded = _fresh([])
    assert set(loaded["modules"]) >= {f"zigzagsums.{name}" for name in TRACED_MODULES}
