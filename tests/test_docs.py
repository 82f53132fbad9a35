"""Dead-link lint over the repo's markdown documentation."""

from pathlib import Path

from repro.obs.__main__ import main as obs_main
from repro.obs.doclint import DeadLink, default_doc_paths, find_dead_links

ROOT = Path(__file__).resolve().parents[1]


def test_doc_corpus_is_nonempty():
    paths = default_doc_paths(ROOT)
    names = {p.name for p in paths}
    assert "README.md" in names
    assert "observability.md" in names


def test_no_dead_links_in_docs():
    dead = find_dead_links(default_doc_paths(ROOT))
    assert dead == [], "dead markdown links:\n" + "\n".join(
        f"  {d.file}:{d.lineno}: {d.target}" for d in dead
    )


def test_detects_a_dead_link(tmp_path):
    md = tmp_path / "page.md"
    md.write_text(
        "# Top\n"
        "## Sec\n"
        "ok [web](https://example.com) and [anchor](#sec)\n"
        "bad [missing](./nope.md)\n"
        "ok [self](page.md#top)\n"
    )
    dead = find_dead_links([md])
    assert len(dead) == 1
    assert isinstance(dead[0], DeadLink)
    assert dead[0].lineno == 4 and dead[0].target == "./nope.md"


def test_detects_a_dead_anchor(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("# Rule Catalogue\nSee [other](other.md#severities).\n"
                    "Bad [gone](#no-such-heading).\n")
    other = tmp_path / "other.md"
    other.write_text("## Severities\n```\n# not a heading (code fence)\n```\n")
    dead = find_dead_links([page])
    assert [d.target for d in dead] == ["#no-such-heading"]
    # Cross-file anchor resolves; a fenced pseudo-heading does not count.
    page.write_text("See [other](other.md#not-a-heading-code-fence).\n")
    dead = find_dead_links([page])
    assert [d.target for d in dead] == ["other.md#not-a-heading-code-fence"]


def test_anchor_slugs_handle_punctuation_and_duplicates(tmp_path):
    from repro.obs.doclint import heading_anchors

    md = tmp_path / "a.md"
    md.write_text(
        "# `repro.analyze` — Rules & Severities!\n"
        "## Setup\n"
        "## Setup\n"
    )
    anchors = heading_anchors(md)
    assert "reproanalyze--rules--severities" in anchors
    assert {"setup", "setup-1"} <= anchors


def test_check_docs_cli_passes_on_repo(capsys):
    assert obs_main(["--check-docs", str(ROOT)]) == 0
    assert "doc check OK" in capsys.readouterr().out


def test_job_schema_tables_are_the_code_tables():
    """docs/service.md "Job schema" has one ``###`` table per layer of
    ``repro.service.jobs.TABLES``: the same layers, the same keys."""
    import re

    from repro.service.jobs import TABLES

    text = (ROOT / "docs" / "service.md").read_text()
    schema = text.split("\n## Job schema\n")[1].split("\n## ")[0]
    documented = {}
    for section in schema.split("\n### ")[1:]:
        title, _, body = section.partition("\n")
        keys = re.findall(r"^\| `([^`]+)` \|", body, flags=re.M)
        if keys:
            documented[title.strip()] = keys
    assert documented == {name: list(table) for name, table in TABLES.items()}
