"""Start-up gate: what a fresh interpreter pays before TGAE does any work.

Every CLI call and every benchmark process starts by importing the library.
scipy and networkx load only inside the functions that use them
(``docs/ARCHITECTURE.md``, "Import graph"), so importing ``repro.core`` or
``repro.cli``, or running ``python -m repro generate``, loads neither.  This
benchmark times, in fresh interpreters with ``src`` on ``PYTHONPATH``:

* ``bare_interpreter`` -- ``python -c pass``, the floor under every other row;
* ``import_repro_core`` -- ``python -c "import repro.core"``;
* ``import_repro_cli`` -- ``python -c "import repro.cli"``;
* ``cli_generate`` -- ``python -m repro generate`` on a saved float32 model
  of a 128-node, 256-edge, 24-timestamp Erdos-Renyi graph (one epoch).

Each row is the median of :data:`RUNS` runs, the rows interleaved run by
run.  It writes the ``startup`` section of ``BENCH_startup.json`` and gates:

* **Structure** -- one ``-X importtime`` run of each of the last three rows
  imports no module of :data:`FORBIDDEN`;
* **Absolute** -- the ``import_repro_cli`` median is at most
  :data:`IMPORT_CLI_CEILING_S` seconds.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _artifacts import write_bench_artifact
from repro.core import TGAEGenerator, fast_config, save_generator
from repro.datasets.synthetic import erdos_renyi_temporal

SRC = Path(__file__).resolve().parent.parent / "src"

#: Top-level packages no TGAE start-up may import.
FORBIDDEN = ("scipy", "networkx")

RUNS = 9

#: Seconds for a fresh ``import repro.cli``.  Measured 0.48 s (median of 9;
#: bare interpreter 0.08 s) on a shared 2-vCPU x86-64 container with Python
#: 3.11, NumPy 2.4 and bytecode caching off, against 1.05 s when the CLI
#: imported scipy and networkx at module level; the ceiling is about 1.5x
#: the lean median.
IMPORT_CLI_CEILING_S = 0.75


def _run(args, cwd, importtime=False):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    flags = ["-X", "importtime"] if importtime else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )


def _seconds(args, cwd):
    start = time.perf_counter()
    _run(args, cwd)
    return time.perf_counter() - start


def _forbidden_imports(args, cwd):
    """The :data:`FORBIDDEN` packages a run imports, read from ``-X importtime``."""
    lines = _run(args, cwd, importtime=True).stderr.splitlines()
    names = {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")}
    return sorted({name.split(".")[0] for name in names} & set(FORBIDDEN))


def bench_startup(tmp_path):
    """Lean start-up: no scipy/networkx, ``import repro.cli`` under its ceiling."""
    observed = erdos_renyi_temporal(128, 256, 24, seed=0)
    config = fast_config(epochs=1, num_initial_nodes=64, dtype="float32", seed=0)
    save_generator(TGAEGenerator(config).fit(observed), tmp_path / "model.npz")
    cases = {
        "bare_interpreter": ["-c", "pass"],
        "import_repro_core": ["-c", "import repro.core"],
        "import_repro_cli": ["-c", "import repro.cli"],
        "cli_generate": [
            "-m", "repro", "generate", "--model", "model.npz", "--seed", "0",
            "--output", "generated.tsv",
        ],
    }
    seconds = {name: [] for name in cases}
    for _ in range(RUNS):
        for name, args in cases.items():
            seconds[name].append(_seconds(args, tmp_path))
    forbidden = {
        name: _forbidden_imports(args, tmp_path)
        for name, args in cases.items()
        if name != "bare_interpreter"
    }
    payload = {
        name: {
            "median_s": statistics.median(runs),
            "min_s": min(runs),
            "max_s": max(runs),
            "runs": len(runs),
        }
        for name, runs in seconds.items()
    }
    payload["forbidden_imports"] = forbidden
    payload["import_repro_cli_ceiling_s"] = IMPORT_CLI_CEILING_S
    write_bench_artifact("BENCH_startup.json", "startup", payload)
    for name in seconds:
        row = payload[name]
        print(f"{name:18s} median {row['median_s']:.3f} s "
              f"[{row['min_s']:.3f}, {row['max_s']:.3f}] over {row['runs']} runs")
    assert all(not names for names in forbidden.values()), f"start-up imported {forbidden}"
    assert payload["import_repro_cli"]["median_s"] <= IMPORT_CLI_CEILING_S, (
        f"import repro.cli took {payload['import_repro_cli']['median_s']:.3f} s "
        f"(ceiling {IMPORT_CLI_CEILING_S} s)"
    )
