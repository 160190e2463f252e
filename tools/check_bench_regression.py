"""Gate a fresh benchmark run against its committed baseline.

Compares a freshly generated ``BENCH_*.json`` against the copy
committed in the repository and fails (exit 1) when a performance
metric regressed beyond the tolerance. Metric direction is inferred
from the key name:

* **lower is better** — keys mentioning ``latency``, ``seconds``,
  ``p50``/``p99``, or ``time``;
* **higher is better** — keys mentioning ``per_sec``/``per_second``,
  ``speedup``, ``throughput``, or ``jobs_per``;
* anything else (counts, sizes, configuration echoes) is reported but
  never gates.

With the default ``--tolerance 0.5`` a lower-is-better metric may be up
to 2x the baseline and a higher-is-better one as low as half of it —
deliberately loose, because CI machines are noisy; the gate exists to
catch order-of-magnitude cliffs, not single-digit drift. Keys present
on only one side are reported and skipped (scenario sets may differ:
CI re-runs only a smoke slice of a multi-scenario baseline).

Result *lists* (``BENCH_scale.json``/``BENCH_shards.json`` keep one
entry per audit x size) are flattened too: each dict element is keyed
by its identity fields (``audit``, ``n_objects``, shard geometry, ...)
rather than its position, so a smoke slice re-running only ``N=10k``
lines up with the matching baseline entries and the rest skip.

Deterministic counters need no tolerance: each ``--exact KEY`` names a
key, at any depth, whose value (a number, a flag, a list or a whole
subtree) must equal the baseline's. Result lists are walked element by
element, paired by the same identity fields; an element on one side only
is skipped. A named key missing from the baseline, or from one side of
a pair where the other has it, fails the gate too, so a renamed counter
cannot pass unchecked.

Usage::

    python tools/check_bench_regression.py \
        --baseline BENCH_serving.json --new /tmp/BENCH_serving.json \
        [--tolerance 0.5] [--exact tasks --exact verdicts ...]
"""

from __future__ import annotations

import argparse
import json
import re
import sys

LOWER_IS_BETTER = re.compile(r"latency|seconds|p50|p99|_time|time_")
HIGHER_IS_BETTER = re.compile(r"per_sec|per_second|speedup|throughput|jobs_per")

#: Scalar fields that identify a list element across runs (configuration
#: echoes, never measurements). Order fixes the rendered key.
IDENTITY_FIELDS = (
    "benchmark",
    "audit",
    "scenario",
    "name",
    "n_objects",
    "tau",
    "shard_size",
    "max_resident_shards",
    "executor_mode",
    "n_shards",
)


def element_key(element, index: int) -> str:
    """Stable label for one list element: identity fields, else position."""
    if isinstance(element, dict):
        parts = [
            f"{field}={element[field]}"
            for field in IDENTITY_FIELDS
            if isinstance(element.get(field), (str, int))
            and not isinstance(element.get(field), bool)
        ]
        if parts:
            return "[" + ",".join(parts) + "]"
    return f"[{index}]"


def direction(key: str) -> str | None:
    """'lower' / 'higher' when the key names a gated metric, else None."""
    lowered = key.lower()
    if HIGHER_IS_BETTER.search(lowered):
        return "higher"
    if LOWER_IS_BETTER.search(lowered):
        return "lower"
    return None


def numeric_leaves(node, prefix=""):
    """Flatten nested dicts to {dotted.path: float} over numeric leaves."""
    leaves: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            leaves.update(numeric_leaves(value, f"{prefix}{key}."))
    elif isinstance(node, list):
        for index, element in enumerate(node):
            label = element_key(element, index)
            leaves.update(
                numeric_leaves(element, f"{prefix.rstrip('.')}{label}.")
            )
    elif isinstance(node, bool):
        pass
    elif isinstance(node, (int, float)):
        leaves[prefix.rstrip(".")] = float(node)
    return leaves


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Regression messages (empty when the fresh run passes the gate)."""
    base_leaves = numeric_leaves(baseline)
    new_leaves = numeric_leaves(fresh)
    failures: list[str] = []
    for path in sorted(set(base_leaves) & set(new_leaves)):
        # Direction comes from the leaf key, not the scenario prefix.
        sense = direction(path.rsplit(".", 1)[-1])
        base, new = base_leaves[path], new_leaves[path]
        if sense is None or base <= 0:
            continue
        if sense == "lower" and new > base / tolerance:
            failures.append(
                f"REGRESSION {path}: {new:.4g} > {base:.4g}/{tolerance:g} "
                f"(lower is better)"
            )
        elif sense == "higher" and new < base * tolerance:
            failures.append(
                f"REGRESSION {path}: {new:.4g} < {base:.4g}*{tolerance:g} "
                f"(higher is better)"
            )
        else:
            ratio = new / base
            print(f"  ok {path}: {base:.4g} -> {new:.4g} ({ratio:.2f}x)")
    for path in sorted(set(base_leaves) ^ set(new_leaves)):
        if direction(path.rsplit(".", 1)[-1]) is not None:
            side = "baseline" if path in base_leaves else "new run"
            print(f"  skip {path}: only in {side}")
    return failures


def exact_mismatches(baseline: dict, fresh: dict, keys) -> list[str]:
    """Failure messages for every ``keys`` value that differs between the
    two runs (empty when all are equal)."""
    keys = set(keys)
    failures: list[str] = []
    found: set[str] = set()

    def walk(base, new, path: str) -> None:
        if isinstance(base, list) and isinstance(new, list):
            # Elements pair up by identity, as in compare(); an element
            # on one side only is a scenario the other run skipped.
            paired = {element_key(element, index): element for index, element in enumerate(new)}
            for index, element in enumerate(base):
                label = element_key(element, index)
                if label in paired:
                    walk(element, paired[label], f"{path.rstrip('.')}{label}.")
            return
        if not (isinstance(base, dict) and isinstance(new, dict)):
            return
        for key in sorted(base.keys() | new.keys()):
            where = f"{path}{key}"
            if key in keys:
                found.add(key)
                if key not in base or key not in new:
                    side = "baseline" if key in base else "new run"
                    failures.append(f"MISMATCH {where}: only in {side}")
                elif base[key] != new[key]:
                    failures.append(
                        f"MISMATCH {where}: {json.dumps(new[key])} != "
                        f"{json.dumps(base[key])} (must be equal)"
                    )
                else:
                    print(f"  equal {where}")
            elif key in base and key in new:
                walk(base[key], new[key], f"{where}.")

    walk(baseline, fresh, "")
    for key in sorted(keys - found):
        failures.append(f"MISMATCH {key}: not in the baseline")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--new", required=True)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fraction of baseline performance (0 < t <= 1)",
    )
    parser.add_argument(
        "--exact",
        action="append",
        default=[],
        metavar="KEY",
        help="a key (at any depth) whose value must equal the baseline's; repeatable",
    )
    args = parser.parse_args(argv)
    if not 0 < args.tolerance <= 1:
        parser.error("--tolerance must be in (0, 1]")

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.new) as handle:
        fresh = json.load(handle)
    print(f"comparing {args.new} against {args.baseline} "
          f"(tolerance {args.tolerance:g})")
    failures = compare(baseline, fresh, args.tolerance)
    failures += exact_mismatches(baseline, fresh, args.exact)
    for message in failures:
        print(message, file=sys.stderr)
    if failures:
        return 1
    print("no benchmark regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
