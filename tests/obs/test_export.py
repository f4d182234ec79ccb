"""Tests for the Prometheus text dump and the profile table."""

from repro import obs
from repro.obs.export import escape_label_value, render_profile_table, to_prometheus_text
from repro.obs.metrics import MetricsRegistry


class TestPrometheusText:
    def test_counter_gets_total_suffix(self):
        reg = MetricsRegistry()
        reg.enabled = True
        reg.counter("network.requests.served").inc(3)
        text = to_prometheus_text(reg)
        assert "repro_network_requests_served_total 3" in text

    def test_gauge_plain_name(self):
        reg = MetricsRegistry()
        reg.enabled = True
        reg.gauge("shm.arena.bytes").set(1024)
        text = to_prometheus_text(reg)
        assert "repro_shm_arena_bytes 1024" in text
        assert "# TYPE repro_shm_arena_bytes gauge" in text

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        reg.enabled = True
        h = reg.histogram("fid", buckets=(0.5, 1.0))
        h.observe(0.4)
        h.observe(0.9)
        text = to_prometheus_text(reg)
        assert 'repro_fid_bucket{le="0.5"} 1' in text
        assert 'repro_fid_bucket{le="1"} 2' in text
        assert 'repro_fid_bucket{le="+Inf"} 2' in text
        assert "repro_fid_count 2" in text

    def test_default_registry_used_when_omitted(self, telemetry):
        obs.counter("export.default").inc()
        assert "repro_export_default_total 1" in to_prometheus_text()

    def test_empty_registry_dumps_empty_string(self):
        assert to_prometheus_text(MetricsRegistry()) == ""

    def test_observation_on_bucket_boundary_lands_in_that_bucket(self):
        # The le label is an inclusive upper bound: observe(0.5) counts
        # toward le="0.5", not only the next bucket up.
        reg = MetricsRegistry()
        reg.enabled = True
        h = reg.histogram("edge", buckets=(0.5, 1.0))
        h.observe(0.5)
        h.observe(1.0)
        text = to_prometheus_text(reg)
        assert 'repro_edge_bucket{le="0.5"} 1' in text
        assert 'repro_edge_bucket{le="1"} 2' in text
        assert 'repro_edge_bucket{le="+Inf"} 2' in text

    def test_observation_above_all_bounds_only_in_inf(self):
        reg = MetricsRegistry()
        reg.enabled = True
        reg.histogram("over", buckets=(0.5,)).observe(2.0)
        text = to_prometheus_text(reg)
        assert 'repro_over_bucket{le="0.5"} 0' in text
        assert 'repro_over_bucket{le="+Inf"} 1' in text


class TestLabelEscaping:
    def test_backslash_escaped_before_quote_and_newline(self):
        # Escaping order matters: the backslashes introduced for quotes
        # and newlines must not themselves get re-escaped.
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_plain_value_untouched(self):
        assert escape_label_value("0.5") == "0.5"

    def test_already_escaped_sequence_round_trips(self):
        assert escape_label_value('\\n') == "\\\\n"


class TestProfileTable:
    def test_renders_rows_slowest_first(self):
        profile = {
            "fast": {"count": 1, "total_s": 0.001, "max_s": 0.001},
            "slow": {"count": 2, "total_s": 2.0, "max_s": 1.5},
        }
        table = render_profile_table(profile)
        assert "RUN PROFILE" in table
        assert table.index("slow") < table.index("fast")

    def test_empty_profile_renders(self):
        assert "RUN PROFILE" in render_profile_table({})

    def test_default_reads_the_active_recorder(self, telemetry):
        with obs.span("tabled"):
            pass
        assert "tabled" in render_profile_table()
