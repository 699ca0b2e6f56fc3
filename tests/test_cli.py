"""Tests for the aqua-repro command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig01", "fig07", "fig14", "tables", "e2e"):
        assert name in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "fig07" in capsys.readouterr().out


def test_every_command_has_a_parser():
    parser = build_parser()
    # Parsing the bare subcommand name must succeed for every command.
    for name in COMMANDS:
        args = parser.parse_args([name])
        assert args.command == name


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "OPT-30B" in out
    assert "Parti prompts" in out


def test_fig02_command(capsys):
    assert main(["fig02"]) == 0
    out = capsys.readouterr().out
    assert "AudioGen" in out
    assert "Llama-2-13B" in out


def test_fig07_command_with_duration(capsys):
    assert main(["fig07", "--duration", "15"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "aqua+sd" in out


def test_fig14_command_small(capsys):
    assert main(["fig14", "--gpus", "16"]) == 0
    out = capsys.readouterr().out
    assert "mixed_s" in out


def test_fig18_command(capsys):
    assert main(["fig18", "--duration", "10"]) == 0
    out = capsys.readouterr().out
    assert "per-consumer tokens" in out


def test_e2e_command(capsys):
    assert main(["e2e"]) == 0
    out = capsys.readouterr().out
    assert "balanced" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_all_command_writes_results(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["all", "--out", str(out), "--only", "tables"]) == 0
    assert (out / "tables.json").exists()
    assert (out / "manifest.json").exists()


def test_sweep_command(capsys):
    assert main(["sweep", "--rates", "1", "--count", "10"]) == 0
    out = capsys.readouterr().out
    assert "rct_penalty" in out


def test_observe_command(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    report = tmp_path / "report.json"
    assert (
        main(
            [
                "observe",
                "--duration", "20",
                "--trace", str(trace),
                "--metrics", str(metrics),
                "--report", str(report),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Latency attribution" in out
    for component in ("queueing", "prefill_compute", "decode_hbm", "offload_fetch"):
        assert component in out

    import json

    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e.get("ph") in ("s", "t", "f") for e in events)

    from repro.telemetry import parse_prometheus_text

    samples = parse_prometheus_text(metrics.read_text())
    assert "aqua_engine_tokens_generated_total" in samples

    rep = json.loads(report.read_text())
    assert rep["count"] >= 1


def test_observe_command_no_faults(capsys):
    assert main(["observe", "--duration", "10", "--no-faults"]) == 0
    assert "dma-stall" not in capsys.readouterr().out


def test_ambient_trace_flag_on_figure_command(tmp_path, capsys):
    """Every figure command accepts --trace and writes a Chrome trace."""
    trace = tmp_path / "fig07.json"
    assert main(["fig07", "--duration", "10", "--trace", str(trace)]) == 0
    assert "trace written to" in capsys.readouterr().out

    import json

    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e["ph"] == "X" for e in events)


def test_trace_does_not_depend_on_scraping(tmp_path, capsys):
    """--trace records the offload path (flows, AQUA spans) whether or
    not the run also scrapes: both write the same bytes."""
    import json

    traces = []
    for extra in ([], ["--scrape-interval", "1"]):
        trace = tmp_path / f"fig07-{len(extra)}.json"
        assert main(["fig07", "--duration", "10", "--trace", str(trace), *extra]) == 0
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]

    events = json.loads(traces[0])["traceEvents"]
    assert any(e["ph"] in ("s", "t", "f") for e in events)
    assert any(
        e["name"] == "thread_name" and e["args"]["name"].startswith("aqua:")
        for e in events
    )


def test_trace_flag_registered_uniformly():
    """The shared --trace option is present on every command that builds
    a simulated rig, and absent where it could only write an empty file."""
    parser = build_parser()
    for name in (
        "fig01", "fig07", "fig13", "sweep", "resilience", "observe",
        "baseline-offload", "sensitivity-hardware", "context-cache",
        "ablation-shared-producer", "ablation-control-frequency", "cluster-concurrent",
    ):
        args = parser.parse_args([name, "--trace", "out.json"])
        assert args.trace == "out.json"
    for name in ("fig02", "fig14", "e2e"):
        with pytest.raises(SystemExit):
            parser.parse_args([name, "--trace", "out.json"])


def test_fig07_trace_and_dashboard_identical_in_every_mode(
    tmp_path, monkeypatch, capsys
):
    """Serial, forked and spawned runs write the same trace and dashboard
    bytes, with one named pid per rig, each holding spans."""
    import json

    outputs = []
    for jobs, start_method in (("1", None), ("2", "fork"), ("2", "spawn")):
        if start_method is not None:
            monkeypatch.setenv("AQUA_POOL_START_METHOD", start_method)
        trace = tmp_path / f"t-{jobs}-{start_method}.json"
        dashboard = tmp_path / f"d-{jobs}-{start_method}.html"
        assert main(["fig07", "--duration", "10", "--trace", str(trace),
                     "--dashboard", str(dashboard), "--jobs", jobs]) == 0
        outputs.append((trace.read_bytes(), dashboard.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]

    events = json.loads(outputs[0][0])["traceEvents"]
    names = {
        e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"
    }
    assert list(names.values()) == [
        f"{label}/flexgen-OPT-30B"
        for label in ("flexgen-dram", "aqua+sd", "aqua+audiogen", "aqua+llama")
    ]
    for pid in names:
        assert any(e["pid"] == pid and e["ph"] == "X" for e in events)


def test_shared_producer_trace_has_one_pid_per_server(tmp_path, capsys):
    """The shared-producer ablation's rigs are observable: one named pid
    per server (one per variant), each holding spans, and the value
    printed is the unobserved run's."""
    import json

    assert main(["ablation-shared-producer"]) == 0
    plain = capsys.readouterr().out
    trace = tmp_path / "t.json"
    assert main(["ablation-shared-producer", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.startswith(plain)

    events = json.loads(trace.read_text())["traceEvents"]
    names = {
        e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"
    }
    assert list(names.values()) == [
        "ablation-shared-producer/flexgen-0", "ablation-shared-producer/flexgen-0#2"
    ]
    for pid in names:
        assert any(e["pid"] == pid and e["ph"] == "X" for e in events)


def test_empty_trace_fails_loudly(tmp_path, monkeypatch, capsys):
    """A requested trace that records nothing is an error, not an empty file."""
    import repro.cli

    monkeypatch.setitem(repro.cli.COMMANDS, "fig10", lambda args: 0)
    assert main(["fig10", "--trace", str(tmp_path / "t.json")]) != 0
    assert "fig10" in capsys.readouterr().err


def test_unscraped_dashboard_fails_loudly(tmp_path, monkeypatch, capsys):
    import repro.cli

    monkeypatch.setitem(repro.cli.COMMANDS, "fig10", lambda args: 0)
    assert main(["fig10", "--dashboard", str(tmp_path / "d.html")]) != 0
    assert "fig10" in capsys.readouterr().err
