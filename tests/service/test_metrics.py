"""GET /metrics: Prometheus text format, consistent with /statz."""

import re

import pytest

from repro.service.metrics import CONTENT_TYPE, render_metrics

from tests.service.test_auth import raw_request
from tests.service.test_service import http_request, run_with_service

SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" (NaN|[-+]?[0-9.eE+-]+)$"
)
META = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")


def parse_samples(text):
    """name or name{labels} -> float value, for every sample line."""
    samples = {}
    for line in text.splitlines():
        if line.startswith("#"):
            assert META.match(line), line
            continue
        assert SAMPLE.match(line), line
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


async def scrape(port):
    status, headers, body = await raw_request(port, "/metrics")
    assert status == 200
    assert headers["content-type"] == CONTENT_TYPE
    return body.decode("utf-8")


class TestScrape:
    def test_every_line_is_valid_text_format(self, tmp_path):
        async def scenario(service):
            text = await scrape(service.port)
            assert text.endswith("\n")
            parse_samples(text)  # asserts per line

        run_with_service(tmp_path, scenario)

    def test_counters_track_statz(self, tmp_path):
        async def scenario(service):
            target = "/v1/point?kind=analytic&panel=accuracy&points=3"
            for _ in range(3):
                status, _ = await http_request(service.port, target)
                assert status == 200
            samples = parse_samples(await scrape(service.port))
            _, statz = await http_request(service.port, "/statz")
            assert samples['repro_point_requests_total{outcome="compute"}'] == 1
            assert samples['repro_point_requests_total{outcome="hit"}'] == 2
            assert samples["repro_cache_entries"] == statz["runner"]["cache_entries"] == 1
            assert (
                samples['repro_hot_tier_requests_total{result="hit"}']
                == statz["hot_tier"]["hits"]
            )
            assert samples["repro_hot_tier_entries"] == statz["hot_tier"]["entries"]
            assert samples["repro_uptime_seconds"] >= 0
            assert (
                samples["repro_queue_depth_bound"] == service.config.max_pending
            )

        run_with_service(tmp_path, scenario)

    def test_expected_families_present(self, tmp_path):
        async def scenario(service):
            text = await scrape(service.port)
            families = {
                line.split()[2] for line in text.splitlines() if line.startswith("# HELP")
            }
            for family in (
                "repro_uptime_seconds",
                "repro_point_requests_total",
                "repro_in_flight_computations",
                "repro_queue_depth_bound",
                "repro_compute_seconds_total",
                "repro_cache_saved_seconds_total",
                "repro_request_latency_milliseconds",
                "repro_trace_cache_events_total",
                "repro_cache_entries",
                "repro_jobs_tracked",
                "repro_jobs_running",
                "repro_sessions_active",
                "repro_sessions_opened_total",
                "repro_sessions_rejected_total",
                "repro_hot_tier_requests_total",
                "repro_hot_tier_evictions_total",
                "repro_hot_tier_entries",
                "repro_hot_tier_bytes",
            ):
                assert family in families, family
            # single-replica service: no claim coordination families
            assert "repro_claims_held" not in families

        run_with_service(tmp_path, scenario)

    def test_claims_families_appear_with_claim_dir(self, tmp_path):
        async def scenario(service):
            samples = parse_samples(await scrape(service.port))
            assert samples["repro_claims_held"] == 0
            for event in ("claimed", "computed", "released", "stolen", "lost"):
                assert samples[f'repro_claims_total{{event="{event}"}}'] == 0

        run_with_service(
            tmp_path, scenario, claim_dir=str(tmp_path / "cache" / "claims")
        )

    def test_hot_tier_families_absent_when_disabled(self, tmp_path):
        async def scenario(service):
            text = await scrape(service.port)
            assert "repro_hot_tier" not in text
            _, statz = await http_request(service.port, "/statz")
            assert statz["hot_tier"] is None

        run_with_service(tmp_path, scenario, hot_entries=0)

    def test_post_to_metrics_is_405(self, tmp_path):
        async def scenario(service):
            status, body = await http_request(
                service.port, "/metrics", method="POST", body={}
            )
            assert status == 405

        run_with_service(tmp_path, scenario)


class TestCacheEntryCounts:
    def test_only_registered_kinds_and_trace_dir_are_counted(self, tmp_path):
        """A cache directory written by an older build may hold timing
        traces under ``timetrace/``; they are neither point results nor
        compiled accuracy traces, on /statz or on /metrics."""
        stale = tmp_path / "cache" / "timetrace"
        stale.mkdir(parents=True)
        (stale / "x.json").write_text("{}", encoding="utf-8")

        async def scenario(service):
            target = "/v1/point?kind=accuracy&app=em3d&num_procs=4&iterations=2"
            status, _ = await http_request(service.port, target)
            assert status == 200
            _, statz = await http_request(service.port, "/statz")
            samples = parse_samples(await scrape(service.port))
            assert statz["runner"]["cache_entries"] == 1
            assert statz["trace_cache"]["entries"] == 1
            assert samples["repro_cache_entries"] == 1
            assert samples["repro_trace_cache_entries"] == 1

        run_with_service(tmp_path, scenario)


class TestRenderer:
    def test_escapes_label_values(self):
        text = render_metrics({"latency_ms": {}, "claims": None})
        assert text.endswith("\n")
        parse_samples(text)

    def test_none_renders_as_nan(self):
        text = render_metrics({"uptime_s": None})
        assert "repro_uptime_seconds NaN" in text

    def test_renderer_is_deterministic(self):
        snapshot = {
            "uptime_s": 12.5,
            "hits": 3,
            "computes": 1,
            "latency_ms": {"hit": {"count": 3, "p50": 1.0, "p90": 2.0, "p99": 2.5}},
            "sessions": {"active": 1, "opened": 2},
            "hot_tier": {"hits": 9, "misses": 1, "entries": 1, "bytes": 64},
        }
        assert render_metrics(snapshot) == render_metrics(snapshot)
