"""The benchmark patches and reads ovsfalloc by name: every such name must exist."""

import importlib
import importlib.util
from pathlib import Path

from ovsfalloc.allocator import MoveLog
from ovsfalloc.coins import SettleInfo
from ovsfalloc.oracle import VerifyReport
from ovsfalloc.replay import RunStats

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # not added to sys.modules
    return spans


def test_every_name_the_bench_patches_exists():
    spans = _spans()
    targets = [(mod, attr) for _, mod, attr in spans.SPANS]
    targets += [("model", f"Situation.{m}") for m in spans.MUTATE + spans.QUERY]
    missing = []
    for mod_name, attr in targets:
        module = importlib.import_module(f"ovsfalloc.{mod_name}")
        if "." in attr:  # patched in the class dict, as the tracer does
            cls_name, name = attr.split(".")
            cls = getattr(module, cls_name, None)
            ok = cls is not None and name in vars(cls)
        else:
            ok = callable(getattr(module, attr, None))
        if not ok:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
    assert {"Situation", "CoinLedger"} <= {attr.split(".")[0] for _, attr in targets if "." in attr}


def test_every_name_the_bench_reads_exists():
    # what the tracer reads of each MoveLog and SettleInfo it sees
    log = MoveLog("insert")
    for name in ("kind", "moved", "branch", "iterations", "swaps", "renamed", "relabel"):
        assert hasattr(log, name), name
    info = SettleInfo()
    assert hasattr(info, "injected") and hasattr(info, "findings")
    # the replay statistics that the workloads read by key
    read = {
        "m", "total_moves", "max_moves", "max_insert_moves", "total_delete_iterations",
        "relabels", "total_coins_injected", "max_coins_injected", "budget_findings",
        "p4_failures",
    }
    assert read <= RunStats().to_dict().keys()
    # what the verify workload reads of the verifier's report
    report = VerifyReport(5, 6)
    for name in (
        "ok", "depth", "states", "transitions", "max_insert_moves", "max_injected",
        "coverage", "failures",
    ):
        assert hasattr(report, name), name
    assert isinstance(report.missing_coverage(), list)
