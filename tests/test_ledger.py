"""The perfbench ledger (``tools/ledger.py``) on synthetic run outputs.

``record`` numbers entries one past the highest, keeps every run in
the order given and refuses, writing nothing, any run set whose pairs
would not mean anything; ``show`` renders the paired table, counting a
pair as a win by each metric's ``better`` in ``BENCHMARK.json``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ledger", Path(__file__).resolve().parent.parent / "tools" / "ledger.py"
)
ledger = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ledger)

_COMMIT = "0123456789abcdef0123456789abcdef01234567"
_BASE = {
    "setup_s": 1.0,
    "ops_per_s": 100.0,
    "latency_p50_ms": 5.0,
    "latency_tail_ms": 10.0,
    "peak_rss_mb": 120.0,
    "disk_bytes_per_row": 512.0,
}


def _run(tmp_path, name, workload="topk_scan", seed=1, source="a" * 64, seconds=25.0,
         trace=0, correct=True, failed=0, commit=_COMMIT, **metrics):
    """Write one run's stdout, shaped like ``perfbench/run.py``'s."""
    values = {**_BASE, **metrics}
    env = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "source_sha256": source, "thread_env": {},
        "blas": {"name": "openblas", "lib directory": "/build/lib"},
        "server_argv": ["-m", "repro.serving.server", "--store", "/w/store-1", "--port", "0"],
    }
    accounting = {"attempted": 100, "failed": failed, "host_steal_s": 0.25}
    result = {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {n: {"value": v, "unit": "u"} for n, v in values.items()},
    }
    lines = [
        "environment " + json.dumps(env, sort_keys=True),
        "accounting " + json.dumps(accounting, sort_keys=True),
        *(f"{n} = {v!r} u" for n, v in values.items()),
        json.dumps(result),
    ]
    path = tmp_path / f"{name}.out"
    path.write_text("\n".join(lines) + "\n")
    return path


def _pairs(tmp_path, parent_metrics, change_metrics, workload="topk_scan"):
    """Runs for an entry: one parent and one change run per metrics dict."""
    parent = [_run(tmp_path, f"{workload}-p{i}", workload, seed=i, **m)
              for i, m in enumerate(parent_metrics)]
    change = [_run(tmp_path, f"{workload}-c{i}", workload, seed=i, source="b" * 64, **m)
              for i, m in enumerate(change_metrics)]
    return parent, change


def _rows(table):
    return {tuple(cells[:2]): cells[2:] for cells in
            ([c.strip() for c in line.strip("|").split("|")] for line in table.splitlines())}


class TestRecord:
    def test_entries_number_one_past_the_highest(self, tmp_path):
        history = tmp_path / "history"
        runs = [_run(tmp_path, "p")]
        first = ledger.record(runs, [], history)
        assert first == history / "0001-0123456789ab" / "perfbench.json"
        assert ledger.record(runs, [], history).parent.name == "0002-0123456789ab"
        (history / "0009-fedcba987654").mkdir()
        (history / "README.md").write_text("not an entry\n")
        assert ledger.record(runs, [], history).parent.name == "0010-0123456789ab"

    def test_entry_keeps_every_run_in_order_without_local_paths(self, tmp_path):
        parent, change = _pairs(tmp_path, [{"ops_per_s": 1.0}, {"ops_per_s": 2.0}],
                                [{"ops_per_s": 3.0}, {"ops_per_s": 4.0}])
        entry = json.loads(ledger.record(parent, change, tmp_path / "h").read_text())
        assert [r["metrics"]["ops_per_s"] for r in entry["parent"]] == [1.0, 2.0]
        assert [r["metrics"]["ops_per_s"] for r in entry["change"]] == [3.0, 4.0]
        run = entry["change"][1]
        assert (run["attempted"], run["failed"], run["host_steal_s"]) == (100, 0, 0.25)
        assert run["environment"]["seed"] == 1
        assert run["environment"]["source_sha256"] == "b" * 64
        assert run["environment"]["blas"] == {"name": "openblas"}
        assert run["environment"]["server_argv"][3] == "STORE"
        assert set(run["metrics"]) == set(_BASE)

    @pytest.mark.parametrize(
        "parent_kw, change_kw, reason",
        [
            ([{"trace": 1}], [{}], "traced"),
            ([{}], [{"correct": False}], "correct=False"),
            ([{"failed": 2}], [{}], "failed=2"),
            ([{}, {"source": "c" * 64}], [{}, {}], "parent arm mixes source_sha256"),
            ([{}, {}], [{}, {"seconds": 3.0}], "change arm mixes seconds"),
            ([{}, {}], [{}], "run counts per workload differ"),
            ([{}], [{"workload": "cached_lookups"}], "run counts per workload differ"),
            ([{"commit": None}], [], "no commit"),
        ],
    )
    def test_refusals_write_nothing(self, tmp_path, parent_kw, change_kw, reason):
        parent = [_run(tmp_path, f"p{i}", **kw) for i, kw in enumerate(parent_kw)]
        change = [_run(tmp_path, f"c{i}", source="b" * 64, **kw) for i, kw in enumerate(change_kw)]
        history = tmp_path / "history"
        with pytest.raises(ledger.Refused, match=reason):
            ledger.record(parent, change, history)
        assert not history.exists()

    def test_cli_refusal_exits_1(self, tmp_path, capsys):
        history = tmp_path / "history"
        run = _run(tmp_path, "p", trace=1)
        assert ledger.main(["record", "--history", str(history), "--parent", str(run)]) == 1
        assert "refused" in capsys.readouterr().err
        assert not history.exists()

    def test_not_a_run_output_is_refused(self, tmp_path):
        path = tmp_path / "junk.out"
        path.write_text("perfbench: no package\n")
        with pytest.raises(ledger.Refused, match="not a perfbench run output"):
            ledger.record([path], [], tmp_path / "history")


class TestShow:
    def test_wins_follow_better_and_ties_count_for_neither(self, tmp_path):
        # ops_per_s is "higher", latency_p50_ms "lower": one win, one
        # loss and one tie each
        parent, change = _pairs(
            tmp_path,
            [{"ops_per_s": 100.0, "latency_p50_ms": 5.0}] * 3,
            [{"ops_per_s": 110.0, "latency_p50_ms": 4.0},
             {"ops_per_s": 90.0, "latency_p50_ms": 6.0},
             {"ops_per_s": 100.0, "latency_p50_ms": 5.0}],
        )
        rows = _rows(ledger.show(ledger.record(parent, change, tmp_path / "h")))
        assert rows[("topk_scan (3)", "ops_per_s")][-1] == "1/3"
        assert rows[("topk_scan (3)", "latency_p50_ms")][-1] == "1/3"
        assert rows[("topk_scan (3)", "peak_rss_mb")][-1] == "0/3"

    def test_lower_wins_are_counted_where_higher_loses(self, tmp_path):
        parent, change = _pairs(tmp_path, [{"setup_s": 2.0, "ops_per_s": 2.0}] * 2,
                                [{"setup_s": 1.0, "ops_per_s": 1.0}] * 2)
        rows = _rows(ledger.show(ledger.record(parent, change, tmp_path / "h")))
        assert rows[("topk_scan (2)", "setup_s")][-2:] == ["0.500", "2/2"]
        assert rows[("topk_scan (2)", "ops_per_s")][-2:] == ["0.500", "0/2"]

    def test_exact_table(self, tmp_path):
        columns = {
            "setup_s": ([1.0, 1.2, 1.1], [0.9, 1.3, 1.1]),
            "ops_per_s": ([1000.0, 2000.0, 3000.0], [1500.0, 2500.0, 3500.0]),
            "latency_p50_ms": ([0.5] * 3, [0.4] * 3),
            "latency_tail_ms": ([10.0, 20.0, 30.0], [40.0, 50.0, 60.0]),
            "peak_rss_mb": ([120.0] * 3, [120.0] * 3),
            "disk_bytes_per_row": ([512.07] * 3, [512.07] * 3),
        }
        parent, change = _pairs(
            tmp_path,
            [{m: p[i] for m, (p, _) in columns.items()} for i in range(3)],
            [{m: c[i] for m, (_, c) in columns.items()} for i in range(3)],
        )
        table = ledger.show(ledger.record(parent, change, tmp_path / "h"))
        assert table.splitlines() == [
            "| workload (pairs) | metric | parent | change | change/parent | change better |",
            "| --- | --- | --- | --- | --- | --- |",
            "| topk_scan (3) | setup_s | 1.100 [1.050, 1.150] "
            "| 1.100 [1.000, 1.200] | 1.000 | 1/3 |",
            "| topk_scan (3) | ops_per_s | 2,000 [1,500, 2,500] "
            "| 2,500 [2,000, 3,000] | 1.250 | 3/3 |",
            "| topk_scan (3) | latency_p50_ms | 0.5000 [0.5000, 0.5000] "
            "| 0.4000 [0.4000, 0.4000] | 0.800 | 3/3 |",
            "| topk_scan (3) | latency_tail_ms | 20.00 [15.00, 25.00] "
            "| 50.00 [45.00, 55.00] | 2.500 | 0/3 |",
            "| topk_scan (3) | peak_rss_mb | 120.0 [120.0, 120.0] "
            "| 120.0 [120.0, 120.0] | 1.000 | 0/3 |",
            "| topk_scan (3) | disk_bytes_per_row | 512.1 [512.1, 512.1] "
            "| 512.1 [512.1, 512.1] | 1.000 | 0/3 |",
        ]

    def test_parent_only_entry_prints_the_parent_column(self, tmp_path, capsys):
        runs = [_run(tmp_path, "p0", ops_per_s=7.0), _run(tmp_path, "q0", "ingest_compact")]
        entry = ledger.record(runs, [], tmp_path / "h")
        assert ledger.main(["show", str(entry)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "| workload (runs) | metric | parent |"
        assert lines[3] == "| topk_scan (1) | ops_per_s | 7.000 |"
        assert lines[8] == "| ingest_compact (1) | setup_s | 1.000 |"
        assert len(lines) == 2 + 2 * len(_BASE)
