"""Tests for FQDN tokenization and service tag extraction (Alg. 4)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytics.database import FlowDatabase
from repro.analytics.tags import ServiceTagExtractor
from repro.analytics.tokens import (
    tokenize_fqdn,
    tokenize_label,
)
from repro.net.flow import FiveTuple, FlowRecord, TransportProto


class TestTokenizeLabel:
    @pytest.mark.parametrize(
        "label,expected",
        [
            ("smtp2", ["smtpN"]),
            ("mail", ["mail"]),
            ("12", ["N"]),
            ("fb_client_2", ["fb", "client", "N"]),
            ("a-b-c", ["a", "b", "c"]),
            ("media4platform", ["mediaNplatform"]),
            ("", []),
            ("___", []),
            ("MiXeD3Case", ["mixedNcase"]),
        ],
    )
    def test_cases(self, label, expected):
        assert tokenize_label(label) == expected


class TestTokenizeFqdn:
    def test_paper_example(self):
        # From Sec. 4.3: smtp2.mail.google.com -> {smtpN, mail}
        assert tokenize_fqdn("smtp2.mail.google.com") == ["smtpN", "mail"]

    def test_no_subdomains(self):
        assert tokenize_fqdn("google.com") == []

    def test_effective_tld(self):
        assert tokenize_fqdn("static3.bbc.co.uk") == ["staticN"]

    def test_invalid_name(self):
        assert tokenize_fqdn("") == []
        assert tokenize_fqdn("..") == []

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                    min_size=1, max_size=8),
            min_size=3,
            max_size=5,
        )
    )
    def test_token_count_bounded_by_labels(self, labels):
        fqdn = ".".join(labels)
        if len(fqdn) > 253:
            return
        tokens = tokenize_fqdn(fqdn)
        # Tokens come only from labels above the 2LD.
        assert len(tokens) >= 0
        for token in tokens:
            assert token
            assert not any(ch.isdigit() for ch in token) or "N" in token


def _mail_db():
    """Flows imitating the paper's port-25 mix (Tab. 6)."""
    database = FlowDatabase()
    specs = [
        # (client, fqdn, n_flows)
        (1, "smtp1.mail.example.com", 5),
        (2, "smtp2.mail.example.com", 4),
        (3, "smtp7.provider.net", 3),
        (5, "smtp4.outbound.example.com", 2),
        (4, "mx1.aspmx.google.com", 2),
        (1, "mailin.fastmail.com", 2),
    ]
    for client, fqdn, n in specs:
        for i in range(n):
            database.add(
                FlowRecord(
                    fid=FiveTuple(client, 500 + client, 40000 + i, 25,
                                  TransportProto.TCP),
                    start=float(i),
                    fqdn=fqdn,
                )
            )
    return database


class TestServiceTagExtractor:
    def test_top_tag_is_smtp(self):
        extractor = ServiceTagExtractor(_mail_db())
        tags = extractor.extract(25, k=5)
        assert tags[0].token == "smtpN"
        tokens = [t.token for t in tags]
        assert "mail" in tokens

    def test_k_limits_output(self):
        extractor = ServiceTagExtractor(_mail_db())
        assert len(extractor.extract(25, k=2)) == 2

    def test_empty_port(self):
        extractor = ServiceTagExtractor(_mail_db())
        assert extractor.extract(9999) == []

    def test_log_score_damps_heavy_client(self):
        """One client with 1000 flows must not beat 20 clients with 2 each."""
        database = FlowDatabase()
        for i in range(1000):
            database.add(
                FlowRecord(
                    fid=FiveTuple(1, 500, 1000 + i, 8000, TransportProto.TCP),
                    start=float(i),
                    fqdn="spam.heavy.example.com",
                )
            )
        for client in range(2, 22):
            for i in range(2):
                database.add(
                    FlowRecord(
                        fid=FiveTuple(client, 501, 2000 + i, 8000,
                                      TransportProto.TCP),
                        start=float(i),
                        fqdn="api.popular.example.org",
                    )
                )
        log_tags = ServiceTagExtractor(database, use_log_score=True).extract(8000)
        raw_tags = ServiceTagExtractor(database, use_log_score=False).extract(8000)
        assert log_tags[0].token == "api"        # 20 * log(3) > log(1001)
        # raw count 1000 wins for the heavy client's tokens
        assert raw_tags[0].token in {"spam", "heavy"}

    def test_score_formula_matches_eq1(self):
        database = FlowDatabase()
        # client 1: 3 flows with token 'x'; client 2: 1 flow with 'x'.
        for client, n in ((1, 3), (2, 1)):
            for i in range(n):
                database.add(
                    FlowRecord(
                        fid=FiveTuple(client, 500, 3000 + i, 4000,
                                      TransportProto.TCP),
                        start=float(i),
                        fqdn="x.service.example.com",
                    )
                )
        tags = ServiceTagExtractor(database).extract(4000)
        x_tag = next(t for t in tags if t.token == "x")
        assert x_tag.score == pytest.approx(math.log(4) + math.log(2))
        assert x_tag.client_count == 2
        assert x_tag.flow_count == 4

    def test_untagged_flows_ignored(self):
        database = FlowDatabase()
        database.add(
            FlowRecord(
                fid=FiveTuple(1, 2, 3, 4000, TransportProto.TCP),
                start=0.0,
                fqdn=None,
            )
        )
        assert ServiceTagExtractor(database).extract(4000) == []

    def test_extract_all_ports(self):
        extractor = ServiceTagExtractor(_mail_db())
        out = extractor.extract_all_ports(k=3, min_flows=5)
        assert 25 in out
        assert out[25][0].token == "smtpN"

    def test_top_fraction_skewed(self):
        extractor = ServiceTagExtractor(_mail_db())
        top = extractor.top_fraction(25, fraction=0.5)
        everything = extractor.extract(25, k=100)
        assert 0 < len(top) < len(everything)

    def test_top_fraction_validates(self):
        extractor = ServiceTagExtractor(_mail_db())
        with pytest.raises(ValueError):
            extractor.top_fraction(25, fraction=0.0)

    def test_top_fraction_empty_port(self):
        extractor = ServiceTagExtractor(_mail_db())
        assert extractor.top_fraction(9999) == []
