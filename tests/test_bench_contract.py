"""The benchmark patches ovsfalloc by name: every name it patches must exist."""

import importlib
import importlib.util
from pathlib import Path

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
