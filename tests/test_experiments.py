"""Integration tests: every experiment runs and reproduces the paper's
qualitative shape.

These are the repository's acceptance tests — they assert the *claims*
the paper makes about each table/figure, not exact numbers (the
substrate is a scaled synthetic internet, not the authors' testbed).
Traces are cached per process, so the suite builds each one once.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import REGISTRY, run_experiment

# sha256 of str(result) for every experiment, run with the ``results``
# fixture's arguments.  ``str`` (the rendered table, what the paper
# reports) rather than ``repr(result.data)``, whose dict orders and
# container types are the analyses' implementation detail.
GOLDEN = Path(__file__).parent / "golden" / "experiments.json"


@pytest.fixture(scope="module")
def results():
    """Run every experiment once and index the results by id."""
    out = {}
    for exp_id, runner in REGISTRY.items():
        if exp_id in ("table8", "fig6", "fig10", "fig11"):
            out[exp_id] = runner(days=6, seed=11)
        else:
            out[exp_id] = runner()
    return out


class TestRunner:
    def test_registry_covers_all_paper_artifacts(self):
        expected = {f"table{i}" for i in range(1, 10)}
        expected |= {f"fig{i}" for i in range(3, 15)}
        expected.add("dimensioning")
        assert set(REGISTRY) == expected

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_every_result_renders(self, results):
        for exp_id, result in results.items():
            assert result.exp_id == exp_id
            assert result.rendered.strip()
            assert result.paper_reference
            assert str(result)

    def test_every_result_matches_its_golden_digest(self, results):
        digests = {
            exp_id: hashlib.sha256(str(result).encode()).hexdigest()
            for exp_id, result in results.items()
        }
        assert digests == json.loads(GOLDEN.read_text())


class TestTable1:
    def test_flow_count_ordering(self, results):
        rows = {r["trace"]: r for r in results["table1"].data}
        flows = {name: r["tcp_flows"] for name, r in rows.items()}
        # The paper's big three keep their order; the two small traces
        # (US-3G scaled 4M, FTTH 1M) must both be smallest.
        assert flows["EU1-ADSL1"] > flows["EU2-ADSL"] > flows["EU1-ADSL2"]
        assert flows["EU1-ADSL2"] > max(flows["US-3G"], flows["EU1-FTTH"])

    def test_every_trace_has_dns(self, results):
        for row in results["table1"].data:
            assert row["peak_dns_per_min"] > 0
            assert row["dns_responses"] > 0


class TestTable2:
    def test_http_tls_high_p2p_low(self, results):
        data = results["table2"].data
        for trace, per_proto in data.items():
            http, _hits = per_proto["http"]
            tls, _ = per_proto["tls"]
            p2p, _ = per_proto["p2p"]
            assert http > 0.7, trace
            assert tls > 0.6, trace
            assert p2p < 0.15, trace

    def test_us3g_depressed(self, results):
        data = results["table2"].data
        assert data["US-3G"]["http"][0] < data["EU1-ADSL1"]["http"][0] - 0.1
        assert data["US-3G"]["tls"][0] < data["EU2-ADSL"]["tls"][0] - 0.1


class TestTable3:
    def test_reverse_lookup_mostly_useless(self, results):
        data = results["table3"].data
        assert data["Same FQDN"] < 0.25            # paper: 9%
        assert data["Totally different"] + data["No-answer"] > 0.40
        assert abs(sum(data.values()) - 1.0) < 1e-9


class TestTable4:
    def test_certificate_inspection_weak(self, results):
        data = results["table4"].data
        assert data["Certificate equal FQDN"] < 0.3      # paper: 18%
        assert data["No certificate"] > 0.1              # paper: 23%
        assert (
            data["Totally different certificate"]
            + data["No certificate"]
        ) > 0.4                                          # paper: 63%


class TestTable5:
    def test_geography_split(self, results):
        data = results["table5"].data
        us = {domain for domain, _ in data["US"]}
        eu = {domain for domain, _ in data["EU"]}
        assert "cloudfront.net" in us and "cloudfront.net" in eu
        assert "playfish.com" in eu and "playfish.com" not in us
        us_only = {"andomedia.com", "admarvel.com", "mobclix.com"}
        assert us_only & us
        assert not us_only & eu


class TestTable6And7:
    def test_all_ports_tagged_correctly(self, results):
        for exp_id in ("table6", "table7"):
            notes = results[exp_id].notes
            assert "MISS" not in notes, notes

    def test_port25_smtp_first(self, results):
        tags = results["table6"].data[25]
        top_tokens = [token for token, _ in tags[:3]]
        assert any("smtp" in t or t == "mail" for t in top_tokens)

    def test_port1337_reveals_tracker(self, results):
        tags = results["table7"].data[1337]
        tokens = {token for token, _ in tags}
        assert tokens & {"exodus", "genesis"}


class TestTable8:
    def test_trackers_small_but_flow_heavy(self, results):
        data = results["table8"].data
        trackers, general = data["trackers"], data["general"]
        assert trackers["services"] < general["services"]
        assert trackers["flows"] > general["flows"]
        tracker_ratio = trackers["bytes_up"] / max(trackers["bytes_down"], 1)
        general_ratio = general["bytes_up"] / max(general["bytes_down"], 1)
        assert tracker_ratio > 3 * general_ratio


class TestTable9:
    def test_useless_fractions(self, results):
        data = results["table9"].data
        for name, fraction in data.items():
            if name == "US-3G":
                assert 0.15 < fraction < 0.45    # paper: 30%
            else:
                assert 0.35 < fraction < 0.60    # paper: 46-50%
        assert data["US-3G"] < min(
            v for k, v in data.items() if k != "US-3G"
        )


class TestFig3:
    def test_single_mappings_dominate_with_heavy_tails(self, results):
        data = results["fig3"].data
        assert data["single_fqdn"] > 0.6          # paper: 82%
        assert data["single_server"] > 0.55       # paper: 73%
        max_fanout = max(v for v, _ in data["fanout"])
        max_fanin = max(v for v, _ in data["fanin"])
        assert max_fanout >= 10
        assert max_fanin >= 20


class TestFig4:
    def test_cdn_domains_diurnal_blogspot_flat(self, results):
        series = results["fig4"].data
        fbcdn = [v for _, v in series["fbcdn.net"]]
        blogspot = [v for _, v in series["blogspot.com"]]
        assert max(fbcdn) >= 2 * max(min(fbcdn), 1)
        assert max(blogspot) <= 20                # paper: <20 serverIPs


class TestFig5:
    def test_amazon_top_edgecast_small(self, results):
        totals = results["fig5"].data["totals"]
        assert totals["amazon"] == max(totals.values())
        assert totals["edgecast"] <= 20


class TestFig6:
    def test_fqdn_grows_infrastructure_saturates(self, results):
        data = results["fig6"].data
        fqdn_series = data["fqdn"]
        server_series = data["server_ip"]
        # FQDN curve: still adding names in the last quarter.
        quarter = max(len(fqdn_series) // 4, 1)
        fqdn_late_growth = fqdn_series[-1][1] - fqdn_series[-quarter][1]
        assert fqdn_late_growth > 0
        server_late_growth = server_series[-1][1] - server_series[-quarter][1]
        assert server_late_growth <= fqdn_late_growth / 5


class TestFig7And8:
    def test_linkedin_edgecast_dominates_with_one_server(self, results):
        shares = results["fig7"].data
        servers, share = shares["edgecast"]
        assert servers <= 3                       # paper: 1 server
        assert share == max(s for _, s in shares.values())  # paper: 59%

    def test_zynga_amazon_dominates(self, results):
        shares = results["fig8"].data
        amazon_servers, amazon_share = shares["amazon"]
        assert amazon_share > 0.6                 # paper: 86%
        assert amazon_servers == max(s for s, _ in shares.values())


class TestFig9:
    def test_geography_dependence(self, results):
        data = results["fig9"].data
        fb = data["facebook.com"]
        for trace in fb:
            assert fb[trace].get("SELF", 0) > 0.5
        tw = data["twitter.com"]
        assert tw["EU1-ADSL1"].get("akamai", 0) > tw["US-3G"].get("akamai", 0)
        dm = data["dailymotion.com"]
        assert all(dm[t].get("dedibox", 0) > 0.3 for t in dm)
        us_mirrors = {"meta", "ntt", "SELF"}
        assert any(dm["US-3G"].get(m, 0) > 0 for m in us_mirrors)
        assert not any(dm["EU1-ADSL1"].get(m, 0) > 0 for m in ("meta", "ntt"))


class TestFig10And11:
    def test_trackers_prominent_in_cloud(self, results):
        entries = results["fig10"].data
        top_words = [word for word, _, _ in entries[:10]]
        trackerish = sum(
            1 for w in top_words
            if any(t in w for t in ("tracker", "torrent", "announce",
                                    "rlskingbt", "genesis", "bt"))
        )
        assert trackerish >= 5

    def test_tracker_timeline_classes(self, results):
        data = results["fig11"].data
        assert len(data["timelines"]) >= 40       # paper: 45 trackers
        total = len(data["timelines"])
        always = len(data["always_on"])
        assert 0.15 < always / total < 0.55       # paper: ~33%
        assert any(len(g) >= 3 for g in data["synchronized"])


class TestFig12And13:
    def test_first_flow_delay_shape(self, results):
        data = results["fig12"].data
        for name, points in data.items():
            cdf = dict(points)
            if name != "US-3G":
                assert cdf[1.0] > 0.75            # paper: ~90% within 1s
            assert cdf[10.0] < 1.0                # the >10s tail exists
        # FTTH faster than 3G.
        assert dict(data["EU1-FTTH"])[1.0] > dict(data["US-3G"])[1.0]

    def test_one_hour_covers_nearly_all(self, results):
        data = results["fig13"].data
        for name, points in data.items():
            cdf = dict(points)
            assert cdf[3600.0] > 0.9              # paper: ~98%


class TestFig14:
    def test_diurnal_pattern(self, results):
        series = results["fig14"].data
        by_clock = {}
        for t, v in series:
            by_clock.setdefault(int(t // 3600), []).append(v)
        evening = sum(by_clock.get(20, [0])) / max(len(by_clock.get(20, [1])), 1)
        night = sum(by_clock.get(4, [0])) / max(len(by_clock.get(4, [1])), 1)
        assert evening > 2 * night


class TestDimensioning:
    def test_efficiency_monotone_and_saturating(self, results):
        data = results["dimensioning"].data
        efficiencies = data["efficiency_vs_l"]
        sizes = sorted(efficiencies)
        values = [efficiencies[s] for s in sizes]
        assert all(b >= a - 0.02 for a, b in zip(values, values[1:]))
        assert values[-1] > 0.9                   # paper: ~98%
        assert values[0] < values[-1] - 0.1       # small L genuinely hurts

    def test_answer_histogram_multi_share(self, results):
        histogram = results["dimensioning"].data["answer_histogram"]
        total = sum(histogram.values())
        multi = sum(c for size, c in histogram.items() if size > 1)
        assert 0.2 < multi / total < 0.7          # paper: ~40%

    def test_confusion_small(self, results):
        assert results["dimensioning"].data["confusion"] < 0.10
