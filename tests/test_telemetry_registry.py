"""Tests for the Prometheus-style metrics registry."""

import math

import pytest

from repro.telemetry import Counter, Gauge, Histogram, Registry, parse_prometheus_text
from repro.telemetry.registry import LabelIndex


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------
def test_counter_monotone():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_function_is_absent_until_it_counts():
    """A pulled counter has no sample while its source reads 0 — the
    same exposition a pushed child has before its first inc."""
    state = {"n": 0}
    r = Registry()
    fam = r.counter("tokens_total", "", ["engine"])
    fam.labels(engine="a").set_function(lambda: state["n"])
    assert list(fam.samples()) == []
    assert "tokens_total{" not in r.to_prometheus_text()
    state["n"] = 3
    assert list(fam.samples()) == [("tokens_total", (("engine", "a"),), 3.0)]
    assert isinstance(fam.labels(engine="a").value, float)
    with pytest.raises(ValueError, match="function"):
        fam.labels(engine="a").inc()


def test_gauge_set_inc_dec():
    g = Gauge()
    g.set(5)
    g.inc(2)
    g.dec(3)
    assert g.value == 4.0


def test_gauge_callback_reads_live():
    state = {"n": 1}
    g = Gauge()
    g.set_function(lambda: state["n"])
    assert g.value == 1.0
    state["n"] = 7
    assert g.value == 7.0
    g.set(0)  # explicit set detaches the callback
    state["n"] = 99
    assert g.value == 0.0


def test_histogram_cumulative_buckets():
    h = Histogram(buckets=(1.0, 5.0, 10.0))
    for v in (0.5, 0.7, 3.0, 20.0):
        h.observe(v)
    assert h.bucket_counts() == [(1.0, 2), (5.0, 3), (10.0, 3), (float("inf"), 4)]
    assert h.count == 4
    assert h.sum == pytest.approx(24.2)


def test_histogram_bucket_boundary_is_inclusive():
    # Prometheus le semantics: an observation equal to an upper bound
    # lands in that bucket.
    h = Histogram(buckets=(1.0, 2.0))
    h.observe(1.0)
    assert h.bucket_counts()[0] == (1.0, 1)


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=(3.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(buckets=(float("inf"),))


# ---------------------------------------------------------------------------
# Families and labels
# ---------------------------------------------------------------------------
def test_family_label_validation():
    r = Registry()
    fam = r.counter("requests_total", "Requests.", ["engine"])
    fam.labels(engine="vllm").inc()
    with pytest.raises(ValueError):
        fam.labels(gpu="0")  # wrong label name
    with pytest.raises(ValueError):
        fam.inc()  # labeled family has no unlabeled default


def test_family_children_are_cached():
    r = Registry()
    fam = r.counter("x_total", "", ["k"])
    assert fam.labels(k="a") is fam.labels(k="a")
    fam.labels(k="a").inc()
    fam.labels(k="a").inc()
    assert fam.labels(k="a").value == 2.0


def test_label_index_binds_each_child_once():
    r = Registry()
    fam = r.counter("x_total", "", ["k"])
    index = LabelIndex(fam)
    assert fam.child_count == 0  # nothing bound before first use
    index["a"].inc()
    index["a"].inc()
    assert index["a"] is fam.labels(k="a")
    assert fam.labels(k="a").value == 2.0
    assert fam.child_count == 1
    with pytest.raises(ValueError, match="not one"):
        LabelIndex(r.counter("y_total", "", ["k", "j"]))


def test_register_or_return_and_conflicts():
    r = Registry()
    first = r.counter("n_total", "", ["a"])
    assert r.counter("n_total", "", ["a"]) is first
    with pytest.raises(ValueError):
        r.gauge("n_total", "", ["a"])  # kind conflict
    with pytest.raises(ValueError):
        r.counter("n_total", "", ["b"])  # label-schema conflict


def test_invalid_names_rejected():
    r = Registry()
    with pytest.raises(ValueError):
        r.counter("2bad", "")
    with pytest.raises(ValueError):
        r.counter("ok_total", "", ["bad-label"])


# ---------------------------------------------------------------------------
# Exposition
# ---------------------------------------------------------------------------
def test_prometheus_text_roundtrip():
    r = Registry()
    r.counter("tokens_total", "Tokens.", ["engine"]).labels(engine="vllm").inc(3)
    r.gauge("depth", "Queue depth.").set(2)
    h = r.histogram("latency_seconds", "Latency.", ["engine"], buckets=(0.1, 1.0))
    h.labels(engine="vllm").observe(0.05)
    h.labels(engine="vllm").observe(5.0)

    text = r.to_prometheus_text()
    assert "# HELP tokens_total Tokens." in text
    assert "# TYPE latency_seconds histogram" in text
    assert 'tokens_total{engine="vllm"} 3.0' in text

    samples = parse_prometheus_text(text)
    assert samples["tokens_total"] == [({"engine": "vllm"}, 3.0)]
    assert samples["depth"] == [({}, 2.0)]
    buckets = dict(
        (labels["le"], value) for labels, value in samples["latency_seconds_bucket"]
    )
    assert buckets == {"0.1": 1.0, "1.0": 1.0, "+Inf": 2.0}
    assert samples["latency_seconds_count"] == [({"engine": "vllm"}, 2.0)]


def test_label_value_escaping_roundtrip():
    r = Registry()
    tricky = 'a"b\\c\nd'
    r.counter("esc_total", "", ["path"]).labels(path=tricky).inc()
    samples = parse_prometheus_text(r.to_prometheus_text())
    (labels, value) = samples["esc_total"][0]
    assert labels == {"path": tricky}
    assert value == 1.0


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_prometheus_text("not a metric line at all !!!")
    with pytest.raises(ValueError):
        parse_prometheus_text("name{unclosed 1.0")


def test_to_dict_export():
    r = Registry()
    r.counter("c_total", "help!", ["k"]).labels(k="v").inc(2)
    d = r.to_dict()
    assert d["c_total"]["type"] == "counter"
    assert d["c_total"]["help"] == "help!"
    assert d["c_total"]["samples"] == [
        {"name": "c_total", "labels": {"k": "v"}, "value": 2.0}
    ]


def test_nan_and_inf_formatting():
    r = Registry()
    g = r.gauge("weird", "")
    g.set(float("nan"))
    samples = parse_prometheus_text(r.to_prometheus_text())
    assert math.isnan(samples["weird"][0][1])
    g.set(float("inf"))
    samples = parse_prometheus_text(r.to_prometheus_text())
    assert samples["weird"][0][1] == float("inf")


def test_help_text_escaping():
    """HELP lines escape backslash and newline (and nothing else — in
    the exposition format quotes stay literal in HELP text)."""
    r = Registry()
    r.counter("weird_total", 'multi\nline "quoted" back\\slash help')
    text = r.to_prometheus_text()
    assert (
        '# HELP weird_total multi\\nline "quoted" back\\\\slash help' in text
    )
    # Escaping keeps the comment on one physical line.
    help_lines = [l for l in text.splitlines() if l.startswith("# HELP weird_total")]
    assert len(help_lines) == 1
    parse_prometheus_text(text)  # and the document still parses


def test_help_and_type_lines_precede_samples():
    r = Registry()
    r.gauge("depth", "Queue depth.").set(1)
    lines = r.to_prometheus_text().splitlines()
    i_help = lines.index("# HELP depth Queue depth.")
    i_type = lines.index("# TYPE depth gauge")
    i_sample = lines.index("depth 1.0")
    assert i_help < i_type < i_sample


def test_label_unescape_is_single_pass():
    """Regression: a literal backslash followed by a literal ``n`` must
    not collapse into a newline on parse.  Sequential str.replace
    unescaping (``\\n`` first, then ``\\\\``) corrupts exactly this
    value; the parser must unescape in one pass."""
    r = Registry()
    tricky = "\\n"  # two characters: backslash, n — NOT a newline
    r.counter("esc2_total", "", ["path"]).labels(path=tricky).inc()
    text = r.to_prometheus_text()
    assert 'path="\\\\n"' in text  # escaped backslash, literal n
    (labels, _) = parse_prometheus_text(text)["esc2_total"][0]
    assert labels == {"path": tricky}
    assert "\n" not in labels["path"]
