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


def test_records_hold_the_stages_reached_in_order():
    """Each cell records its trace's stages, a run of one stage once, and the
    stage it ended in; every cell starts direct and ends in exactly one."""
    a = cell_corpus.corpus(3, 2, ROOT)
    for r in a.values():
        assert r["stages"][0] == "direct" and r["last_stage"] == r["stages"][-1]
        assert all(s != t for s, t in zip(r["stages"], r["stages"][1:]))
    counts = cell_corpus.stage_counts(a)
    assert counts["direct"][0] == len(a)
    assert sum(ended for _, ended in counts.values()) == len(a)


def _record(stages, status="converged"):
    return {"status": status, "residual": 0.0, "objective": 1.0, "iterations": len(stages),
            "seconds": 0.01, "stages": stages, "last_stage": stages[-1]}


def test_stage_counts_and_last_stage_changes():
    a = {"c1": _record(["direct"]),
         "c2": _record(["direct", "level:4", "level:16", "secant"], "max_iter"),
         "c3": _record(["direct", "restart", "direct", "level:4", "level:16"],
                       "boundary_suspected")}
    assert cell_corpus.stage_counts(a) == {
        "direct": (3, 1), "level:4": (2, 0), "level:16": (2, 1), "secant": (1, 1),
        "restart": (1, 0)}
    b = copy.deepcopy(a)
    b["c2"] = _record(["direct", "level:4", "level:16", "exact"])
    lines, changed = cell_corpus.compare(a, b)
    assert changed == 1
    i = lines.index("1 of 3 cells changed last stage")
    assert lines[i + 1] == "  c2: secant -> exact (max_iter -> converged)"
    assert lines[i + 2:] == [
        "stages (cells reached, cells ended; A -> B):",
        "  direct: reached 3 -> 3, ended 1 -> 1",
        "  level:4: reached 2 -> 2, ended 0 -> 0",
        "  level:16: reached 2 -> 2, ended 1 -> 1",
        "  exact: reached 0 -> 1, ended 0 -> 1",
        "  secant: reached 1 -> 0, ended 1 -> 0",
        "  restart: reached 1 -> 1, ended 0 -> 0"]
