import importlib.util
import inspect
from pathlib import Path

import numpy as np

from equisum import solver
from equisum.evaluator import Problem, profile
from equisum.kernels import log_sine
from equisum.torus import Permutation

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("line_coverage", ROOT / "tools" / "line_coverage.py")
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)


def test_executable_lines_reach_nested_code(tmp_path):
    """Function bodies, comprehensions and class bodies count; blank lines
    and comments do not."""
    src = tmp_path / "m.py"
    src.write_text("def f(x):\n"
                   "    # a comment\n"
                   "    if x:\n"
                   "        return [y for y in x]\n"
                   "\n"
                   "    return None\n"
                   "\n"
                   "class C:\n"
                   "    z = 1\n")
    assert line_coverage.executable_lines(src) == {1, 3, 4, 6, 8, 9}


def test_trace_lines_sees_the_branch_taken():
    """A finite profile takes _residual's last return, not the one for a
    non-finite Delta."""
    p = Problem((log_sine(),) * 3)
    prof = profile(p, np.array([2.0, 4.0]), Permutation((1, 2)))
    (res, _), hits = line_coverage.trace_lines(lambda: solver._residual(prof))
    assert np.isfinite(res)
    source, first = inspect.getsourcelines(solver._residual)
    line = {text.strip(): first + i for i, text in enumerate(source)}
    ran = hits[str(Path(solver.__file__).resolve())]
    assert line["return float(np.max(np.abs(d))), d"] in ran
    assert line["return INF, d"] not in ran
