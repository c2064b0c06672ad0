import copy
import importlib.util
from pathlib import Path

from equisum.kernels import from_config

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cell_corpus", ROOT / "tools" / "cell_corpus.py")
cell_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cell_corpus)


def test_problems_are_a_seeded_prefix():
    """The first k problems of N are those of any larger N, so two corpora
    drawn with the same seed share their cells."""
    drawn = cell_corpus.problems(7, 12)
    assert cell_corpus.problems(7, 5) == drawn[:5]
    assert cell_corpus.problems(8, 5) != drawn[:5]
    for cfgs in drawn:
        assert len(cfgs) in (3, 4)
        for cfg in cfgs:
            from_config(cfg)


def test_compare_lists_status_changes_with_both_residuals():
    a = cell_corpus.corpus(3, 2, ROOT)
    assert len(a) == sum(2 if len(cfgs) == 3 else 6 for cfgs in cell_corpus.problems(3, 2))
    lines, changed = cell_corpus.compare(a, a)
    assert changed == 0 and lines[0] == f"0 of {len(a)} cells changed status"
    b = copy.deepcopy(a)
    key = next(k for k in sorted(b) if b[k]["status"] != "max_iter")
    b[key]["status"], b[key]["residual"] = "max_iter", 0.5
    lines, changed = cell_corpus.compare(a, b)
    assert changed == 1
    assert lines[0] == (f"{key}: {a[key]['status']} -> max_iter, residual "
                        f"{a[key]['residual']:.3g} -> 0.5")
