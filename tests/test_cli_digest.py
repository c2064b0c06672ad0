import importlib.util
from pathlib import Path

from equisum import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)

# the Example's identity cell ends max_iter, as does its maximin; at its
# nodes the relaxed Jacobian fails the M-matrix test, and the strict one
# refuses its tent kernels, which are not C1
EXPECTED_EXIT = {
    "extra/example/eval": 0,
    "extra/example/profile": 0,
    "extra/example/sample": 0,
    "extra/example/mmatrix_relaxed": 2,
    "extra/example/mmatrix_strict": 1,
    "extra/example/convergence": 0,
    "extra/example/equioscillate_degrees": 2,
    "extra/example/minimax_degrees": 0,
    "extra/example/maximin_degrees": 2,
    "extra/logsine_riesz/eval": 0,
    "extra/logsine_riesz/profile": 0,
    "extra/logsine_riesz/sample": 0,
    "extra/logsine_riesz/mmatrix_relaxed": 0,
    "extra/logsine_riesz/mmatrix_strict": 0,
    "extra/logsine_riesz/convergence": 0,
    "extra/logsine_riesz/equioscillate_degrees": 0,
    "extra/logsine_riesz/minimax_degrees": 0,
    "extra/logsine_riesz/maximin_degrees": 0,
    "extra/example/grid_minimax": 0,
    "extra/logsine_tent/sandwich": 0,
    "extra/gtp_degrees": 0,
    "extra/bojanov_degrees": 0,
}


def test_extra_cases_are_stable_and_exit_as_expected():
    """The digest's extra cases give the same records on a second run, with
    the exit codes above."""
    first = cli_digest.run_cases(cli, cli_digest.EXTRA)
    assert cli_digest.run_cases(cli, cli_digest.EXTRA) == first
    assert {key: rec["exit"] for key, rec in first.items()} == EXPECTED_EXIT
