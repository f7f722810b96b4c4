"""The docs stay true or the build goes red.

Four classes of drift this suite catches:

* a markdown link (README or docs/) pointing at a file that is gone;
* a ``src/...`` / ``tests/...`` path or a ``repro.x.y`` module named
  in prose that no longer exists or no longer imports;
* a documented CLI whose ``--help`` no longer runs, a ``--flag`` no
  CLI parser defines, or a documented ``ingest-trace`` command naming
  something that is not a trace;
* the API/metrics references diverging from the code: every
  ``/query/<name>`` route and every ``/metrics`` family must appear in
  the docs, and vice versa.

Plus the source checks behind the "store contract" section of
``docs/architecture.md``: no module outside
``repro/analytics/{storage,shard}.py`` names the topology or manifest
file, nothing under ``src/repro/serve/`` reads a store private, the
store modules name none of a ``FlowDatabase``'s row privates, and one
function parses ``MANIFEST.json``.  And two source lints: no unused
import under ``src``, ``tests``, ``benchmarks``, ``examples`` (ruff's
F401, stdlib only), and no definition in ``src`` that only tests reach.
"""

from __future__ import annotations

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_PAGES = sorted((REPO / "docs").glob("*.md"))
PAGES = [REPO / "README.md", *DOC_PAGES]

_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)\)")
_PATH = re.compile(r"`((?:src|tests|docs|benchmarks|examples)/[\w./-]+?\.(?:py|md))`")
_MODULE = re.compile(r"`(repro(?:\.\w+)+)`")
_HELP_CMD = re.compile(r"python -m (repro[\w.]+)")
_INGEST_TRACE = re.compile(r"ingest-trace\s+([^\s`]+)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
_REPRO_CLIS = (
    "repro.serve.cli", "repro.analytics.flowstore_cli",
    "repro.experiments.runner", "repro.sniffer.cli",
)
#: Flags of the other tools the docs run: ``python -m benchmarks.e2e``,
#: ``benchmarks/run_bench.py`` and pytest.
_OTHER_TOOL_FLAGS = frozenset({
    "--workload", "--seconds", "--trace", "--smoke",
    "--quick", "--compare", "--tolerance",
    "--hypothesis-profile",
})


def _page_ids():
    return [page.relative_to(REPO).as_posix() for page in PAGES]


def test_the_four_serve_docs_exist():
    names = {page.name for page in DOC_PAGES}
    assert {
        "architecture.md", "http-api.md", "runbook.md",
        "observability.md", "failure-modes.md",
    } <= names


@pytest.mark.parametrize("page", PAGES, ids=_page_ids())
def test_markdown_links_resolve(page):
    text = page.read_text(encoding="utf-8")
    broken = []
    for target in _LINK.findall(text):
        if "://" in target:                      # external URL
            continue
        resolved = (page.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{page.name}: broken links {broken}"


@pytest.mark.parametrize("page", PAGES, ids=_page_ids())
def test_referenced_paths_exist(page):
    text = page.read_text(encoding="utf-8")
    missing = [
        path for path in _PATH.findall(text)
        if not (REPO / path).exists()
    ]
    assert not missing, f"{page.name}: dead paths {missing}"


@pytest.mark.parametrize("page", PAGES, ids=_page_ids())
def test_referenced_modules_import(page):
    text = page.read_text(encoding="utf-8")
    failures = []
    for module in set(_MODULE.findall(text)):
        try:
            importlib.import_module(module)
            continue
        except ImportError:
            pass
        # Maybe a dotted attribute path (module.ClassName).
        parent, _dot, attr = module.rpartition(".")
        try:
            if not hasattr(importlib.import_module(parent), attr):
                failures.append(f"{module}: no attribute {attr!r}")
        except ImportError as exc:
            failures.append(f"{module}: {exc}")
    assert not failures, f"{page.name}: {failures}"


def _documented_cli_modules():
    modules = set()
    for page in PAGES:
        modules.update(_HELP_CMD.findall(page.read_text(encoding="utf-8")))
    # Only entry points (modules with a main); json.tool-style stdlib
    # helpers never match the repro prefix.
    return sorted(modules)


@pytest.mark.parametrize("module", _documented_cli_modules())
def test_documented_clis_answer_help(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, "-m", module, "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, (
        f"python -m {module} --help failed:\n{result.stderr}"
    )
    assert "usage" in result.stdout.lower()


@pytest.fixture(scope="module")
def cli_flags() -> frozenset:
    """Every option string of the repro CLI parsers, subcommands
    included: each ``main`` is run up to its ``parse_args`` call."""
    import argparse
    from unittest import mock

    parsers = []

    def capture(parser, *args, **kwargs):
        parsers.append(parser)
        raise SystemExit(0)

    with mock.patch.object(argparse.ArgumentParser, "parse_args", capture):
        for module in _REPRO_CLIS:
            with pytest.raises(SystemExit):
                importlib.import_module(module).main([])
    flags = set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            flags.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return frozenset(flags)


@pytest.mark.parametrize("page", PAGES, ids=_page_ids())
def test_documented_flags_exist(page, cli_flags):
    named = set(_FLAG.findall(page.read_text(encoding="utf-8")))
    stale = sorted(named - cli_flags - _OTHER_TOOL_FLAGS)
    assert not stale, f"{page.name}: no CLI defines {stale}"


@pytest.mark.parametrize("page", PAGES, ids=_page_ids())
def test_ingest_trace_commands_name_known_traces(page):
    """``repro-flowstore ingest-trace`` takes a simulation trace name,
    not a capture file."""
    from repro.simulation.trace import TRACE_PROFILES

    named = _INGEST_TRACE.findall(page.read_text(encoding="utf-8"))
    unknown = [name for name in named if name not in TRACE_PROFILES]
    assert not unknown, f"{page.name}: ingest-trace of {unknown}"


def _app():
    from repro.analytics.storage import FlowStore
    from repro.serve.server import ServeApp

    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        store = FlowStore(Path(directory) / "store")
        try:
            yield_app = ServeApp(store)
            # Collected eagerly: the registry and routes are static.
            routes = set(yield_app.query_routes)
            families = {m.name for m in yield_app.registry._metrics.values()}
        finally:
            store.close()
    return routes, families


def test_http_api_doc_matches_query_routes():
    routes, _families = _app()
    text = (REPO / "docs" / "http-api.md").read_text(encoding="utf-8")
    table_names = set(re.findall(r"^\| `([\w-]+)` \|", text, re.M))
    assert table_names == routes, (
        f"docs/http-api.md route table out of sync: "
        f"undocumented={sorted(routes - table_names)}, "
        f"stale={sorted(table_names - routes)}"
    )


def test_observability_doc_matches_registry():
    _routes, families = _app()
    text = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"`((?:serve|flowstore)_\w+)`", text))
    assert families <= documented, (
        f"metrics missing from docs/observability.md: "
        f"{sorted(families - documented)}"
    )
    # Everything the doc names as a family must be registered (prose
    # may additionally mention label names; restrict to the catalog
    # tables' first column).
    tabled = set(re.findall(r"^\| `((?:serve|flowstore)_\w+)` \|", text, re.M))
    assert tabled <= families, (
        f"stale metrics documented: {sorted(tabled - families)}"
    )


def test_runbook_quarantine_workflow_points_at_real_tools():
    text = (REPO / "docs" / "runbook.md").read_text(encoding="utf-8")
    assert "failure-modes.md" in text
    assert "repro.analytics.flowstore_cli" in text
    assert "quarantine" in text


def test_architecture_doc_is_linked_from_readme():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for page in ("docs/architecture.md", "docs/http-api.md",
                 "docs/runbook.md", "docs/observability.md"):
        assert page in readme, f"README does not link {page}"


def _source_hits(root: Path, pattern: str, skip=()) -> list[str]:
    """Lines matching ``pattern`` in ``root`` (one file, or every
    ``*.py`` under a directory)."""
    regex = re.compile(pattern)
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    return [
        f"{path.relative_to(REPO)}:{number}: {line.strip()}"
        for path in paths if path not in skip
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if regex.search(line)
    ]


def test_store_contract_is_decided_in_one_place():
    """docs/architecture.md, "The store contract": which file makes a
    directory flat or sharded is known to the store modules alone, and
    the serve layer sees a store through its public surface."""
    src = REPO / "src" / "repro"
    analytics = src / "analytics"
    leaks = _source_hits(
        src, r"SHARDS\.json|MANIFEST\.json|SHARDS_NAME|MANIFEST_NAME",
        skip=(analytics / "storage.py", analytics / "shard.py"),
    )
    assert not leaks, "store file names outside the store:\n" + "\n".join(
        leaks
    )
    private = _source_hits(src / "serve", r"store\._[a-z]")
    assert not private, "store privates read in serve:\n" + "\n".join(
        private
    )


#: What only ``FlowDatabase`` may touch of itself: indexes, statistics,
#: the lazy record cache, their builder.  (The intern-table reads
#: ``_intern_fqdn`` / ``_fqdn_names`` / ``_sld_names`` are shared with
#: ``queries.py`` and stay.)
_ROW_PRIVATES = (
    r"(?<!\w)(?:_by_server|_by_port|_by_fqdn|_by_sld|_tagged"
    r"|_protocol_counts|_min_start|_max_end|_records|_all_records"
    r"|_raw_fqdns|_cert_names|_true_fqdns|_extend_index|_fqdn_sld)\b"
)
#: ``queries.py`` reads the statistics (``database_summary``) and the
#: intern tables; the indexes it reaches through ``_index()`` only.
_INDEX_PRIVATES = (
    r"(?<!\w)(?:_by_server|_by_port|_by_fqdn|_by_sld|_extend_index)\b"
)
#: The per-tuple lifts and merges the packed ``Groups`` partial replaced.
_TUPLE_COMBINATORS = (
    r"\b(?:_lift_id_pairs|_lift_id_triples|_lift_id_totals"
    r"|_lift_server_id_bins|_lift_id_keys|_sorted_set|_sum_counts"
    r"|_sum_tuples|_sum_totals|_min_by_key)\b"
)


def _functions_with(path: Path, wanted) -> set[str]:
    """Names of the functions in ``path`` holding a node ``wanted``
    accepts (a nested function counts for its enclosing ones too)."""
    return {
        function.name
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(wanted(node) for node in ast.walk(function))
    }


def _attribute(name: str):
    """Node test: ``name`` read as an attribute, called or passed."""
    return lambda node: isinstance(node, ast.Attribute) and node.attr == name


def _calls(name: str):
    """Node test: a call of ``name``, bare or as an attribute."""
    def wanted(node) -> bool:
        return isinstance(node, ast.Call) and name == getattr(
            node.func, "id", getattr(node.func, "attr", None)
        )
    return wanted


def _functions_calling(path: Path, module: str, attr: str) -> set[str]:
    """Names of the functions in ``path`` that call ``module.attr``."""
    return _functions_with(path, lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module
    ))


def test_flowdatabase_owns_its_rows():
    """docs/architecture.md, "The store contract", *Rows*: the store
    modules see a database through ``columns``, its constructors and
    its queries — never its indexes or statistics — the query table
    reaches an index through the accessor that builds it, grouped
    partials travel packed, and the manifest has one reader."""
    analytics = REPO / "src" / "repro" / "analytics"
    modules = [analytics / name
               for name in ("storage.py", "shard.py", "flowstore_cli.py")]
    leaks = [
        hit for module in modules
        for hit in _source_hits(module, _ROW_PRIVATES)
    ]
    leaks += _source_hits(analytics / "queries.py", _INDEX_PRIVATES)
    assert not leaks, "FlowDatabase row privates in the store:\n" + (
        "\n".join(leaks)
    )
    revived = _source_hits(REPO / "src", _TUPLE_COMBINATORS)
    assert not revived, "per-tuple combinators are back:\n" + (
        "\n".join(revived)
    )
    parsers = {
        (module.name, name) for module in modules
        for name in _functions_calling(module, "json", "loads")
    }
    assert parsers == {
        ("storage.py", "read_manifest"),
        ("shard.py", "_load_or_create_topology"),   # SHARDS.json
    }


def test_consumers_read_columns_and_labels_resolve_once():
    """docs/architecture.md, *Rows* and "add an analysis": the Fig. 3 /
    5 / 11 analyses regroup a packed partial through ``Groups``
    operations — no tuple per group, no reaching into its arrays; a
    segment's label table is lowered in one place and adopted, not
    re-interned, at materialization; and a gap-filled series is bounded
    in one function."""
    analytics = REPO / "src" / "repro" / "analytics"
    unpacked = [
        hit for name in ("temporal.py", "tangle.py", "trackers.py")
        for hit in _source_hits(
            analytics / name, r"\.tuples\(\)|\.columns\b|\.rows\b"
        )
    ]
    assert not unpacked, "a consumer unpacks its partial:\n" + "\n".join(
        unpacked
    )
    storage, database = analytics / "storage.py", analytics / "database.py"
    assert not _source_hits(REPO / "src", r"_map_local_fqdns")
    # A label-table entry is decoded, lowered and interned in bind
    # alone (the footer lowers what it writes); no second pass exists.
    assert _functions_with(storage, _attribute("lower")) == {
        "bind", "from_blocks"
    }
    assert _functions_with(storage, _attribute("_intern_fqdn")) == {
        "bind", "_sync_tail_map"
    }
    # The footer (write path) and first-seen interning, nowhere else.
    assert _functions_with(storage, _calls("second_level_domain")) == {
        "from_blocks"
    }
    assert _functions_with(database, _calls("second_level_domain")) == {
        "_intern_fqdn"
    }
    assert "from_columns" not in _functions_with(
        database, _calls("_intern_fqdn")
    )

    def compares_the_limit(node) -> bool:
        return isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Name) and side.id == "MAX_SERIES_BINS"
            for side in [node.left, *node.comparators]
        )

    assert {
        (path.name, name)
        for path in sorted((REPO / "src").rglob("*.py"))
        for name in _functions_with(path, compares_the_limit)
    } == {("database.py", "series_bins")}


_TYPE_STRING = re.compile(r"[\w.\[\], |]{1,80}")


def _unused_imports(path: Path) -> list[str]:
    """``ruff check``'s F401 with the stdlib: names an import binds
    that the module never loads.  ``__all__`` entries and quoted
    annotations count as uses; a ``noqa`` on the line opts out."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _TYPE_STRING.fullmatch(node.value)
        ):
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            line = lines[alias.lineno - 1]
            if bound in used or bound == "*" or (
                "noqa" in line and "E402" not in line
            ):
                continue
            unused.append(f"{path.relative_to(REPO)}:{alias.lineno}: {bound}")
    return unused


def test_no_unused_imports():
    unused = [
        hit
        for root in ("src", "tests", "benchmarks", "examples")
        for path in sorted((REPO / root).rglob("*.py"))
        for hit in _unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


#: Definitions kept although nothing outside ``tests/`` names them.
_TEST_ONLY_ALLOWED = {
    "check_invariants": "the invariant checks the property tests call",
    "tcp_stats": "the TCP counter ROADMAP item 5(a) exports",
    "process_batches": "ROADMAP item 1(b) points the benchmark at it",
    "released": "the pin state the snapshot tests assert on",
    "do_GET": "http.server hook",
    "do_POST": "http.server hook",
    "log_message": "http.server hook",
}
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _referenced_names(path: Path) -> set[str]:
    """Every name ``path`` refers to: loads, attributes, import
    aliases and identifier-shaped strings (``__all__``, ``getattr``
    tables such as ``QUERIES``)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname or node.name)
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _IDENTIFIER.fullmatch(node.value)
        ):
            names.add(node.value)
    return names


@functools.lru_cache(maxsize=None)
def _names_used_outside_tests() -> frozenset[str]:
    return frozenset(
        name
        for root in ("src", "benchmarks", "examples")
        for path in sorted((REPO / root).rglob("*.py"))
        for name in _referenced_names(path)
    )


@functools.lru_cache(maxsize=None)
def _src_definitions() -> tuple[tuple[str, int, str], ...]:
    """``(path, line, name)`` of every non-dunder ``def`` / ``class``
    in ``src``."""
    return tuple(
        (str(path.relative_to(REPO)), node.lineno, node.name)
        for path in sorted((REPO / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def test_no_test_only_definitions():
    """``src`` ships what the monitor, the benchmarks and the examples
    run: every ``def`` / ``class`` in it is named somewhere outside
    ``tests/``, or allowlisted with a reason."""
    used = _names_used_outside_tests()
    unused = [
        f"{path}:{line}: {name}"
        for path, line, name in _src_definitions()
        if name not in used and name not in _TEST_ONLY_ALLOWED
    ]
    assert not unused, "defined in src, reached only by tests:\n" + (
        "\n".join(unused)
    )


@pytest.mark.parametrize("name", sorted(_TEST_ONLY_ALLOWED))
def test_allowlisted_definition_is_still_test_only(name):
    """An allowlist entry stays only while it is needed: the name is
    still defined in ``src`` and still named by nothing outside
    ``tests/``.  Drop the entry once either stops holding."""
    assert name in {defined for _, _, defined in _src_definitions()}, (
        f"{name} is no longer defined in src"
    )
    assert name not in _names_used_outside_tests(), (
        f"{name} is now named outside tests/"
    )
