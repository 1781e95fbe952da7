"""TGAE operations load neither scipy nor networkx.

scipy and networkx are imported only inside the functions that use them
(``docs/ARCHITECTURE.md``, "Import graph"), so importing the library and
running every TGAE operation -- in the library or through the CLI -- never
pays their start-up cost.  ``sys.modules`` is per process, so each check
runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FORBIDDEN = ("scipy", "networkx")

LEAN_IMPORTS = "import repro, repro.core, repro.graph, repro.metrics, repro.datasets, repro.cli\n"

# One tiny round of every TGAE operation, on both decoders.
ROUND = """
from repro.core import TGAEGenerator, fast_config
from repro.datasets.synthetic import erdos_renyi_temporal
from repro.metrics import streaming_evaluate

observed = erdos_renyi_temporal(30, 150, 4, seed=0)
for limit in (0, 4):
    config = fast_config(epochs=1, num_initial_nodes=8, candidate_limit=limit, seed=0)
    generator = TGAEGenerator(config).fit(observed)
    generated = generator.generate(seed=0)
    generator.generate(seed=1)
    assert generator.score_topk(k=2).nnz > 0
    generator.update((observed.src[:3], observed.dst[:3], observed.t[:3]), epochs=0)
    assert streaming_evaluate(observed, generated)
"""

CLI = """
import runpy
import sys

for argv in {commands!r}:
    sys.argv = ["repro", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        assert exit.code == 0, (argv, exit.code)
"""

REPORT = """
import json, sys
print(json.dumps(sorted(name for name in {forbidden!r} if name in sys.modules)))
"""


def run_fresh(code, cwd=None):
    """Run ``code`` in a new interpreter; return its last stdout line."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""


def loaded_after(code, cwd=None):
    """The forbidden modules in ``sys.modules`` once ``code`` has run."""
    return json.loads(run_fresh(code + REPORT.format(forbidden=FORBIDDEN), cwd=cwd))


def test_importing_the_library_loads_neither():
    assert loaded_after(LEAN_IMPORTS) == []


def test_a_tgae_round_loads_neither():
    assert loaded_after(LEAN_IMPORTS + ROUND) == []


def test_cli_tgae_commands_load_neither(tmp_path):
    edges = tmp_path / "observed.tsv"
    edges.write_text("".join(f"{i % 12} {(i * 5 + 1) % 12} {i % 3}\n" for i in range(60)))
    (tmp_path / "new.tsv").write_text("1 2 2\n3 4 2\n")
    commands = [
        ["fit", "--input", str(edges), "--epochs", "1", "--model", "model.npz"],
        ["update", "--model", "model.npz", "--edges", "new.tsv", "--epochs", "0"],
        ["convert", "--to", "events", "--input", str(edges), "--output", "events.tsv"],
        ["generate", "--model", "model.npz", "--seed", "0", "--output", "generated.tsv"],
    ]
    assert loaded_after(CLI.format(commands=commands), cwd=tmp_path) == []
    assert (tmp_path / "generated.tsv").read_text().strip()


def test_a_tgae_round_runs_with_both_libraries_blocked():
    # A ``None`` entry makes any import of the name raise ImportError.
    block = "import sys\nsys.modules['scipy'] = sys.modules['networkx'] = None\n"
    run_fresh(block + LEAN_IMPORTS + ROUND)


@pytest.mark.parametrize(
    "call, loads",
    [
        ("final.adjacency().shape == (40, 40)", "scipy"),
        ("final.to_networkx().number_of_edges() > 0", "networkx"),
        ("largest_connected_component(final) > 1", "scipy"),
        ("laplacian_spectrum(final, k=3).size == 3", "scipy"),
        ("0.0 <= downstream_link_prediction_auc(observed, observed) <= 1.0", "scipy"),
    ],
    ids=["adjacency", "to_networkx", "lcc", "laplacian", "downstream_auc"],
)
def test_the_call_sites_still_load_what_they_use(call, loads):
    code = LEAN_IMPORTS + f"""
import sys
from repro.datasets.synthetic import erdos_renyi_temporal
from repro.graph import snapshot_at
from repro.metrics import (
    downstream_link_prediction_auc, largest_connected_component, laplacian_spectrum,
)

observed = erdos_renyi_temporal(40, 200, 4, seed=0)
final = snapshot_at(observed, observed.num_timestamps - 1)
assert {loads!r} not in sys.modules
assert {call}
"""
    assert loads in loaded_after(code)
