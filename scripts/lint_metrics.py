#!/usr/bin/env python3
"""Cross-checks obs instrumentation against its documentation.

Blocking CI lint (docs/static-analysis.md). Three properties:

1. Naming convention: every counter/histogram name published in
   src/ matches ``engine.metric`` (lowercase dotted segments,
   [a-z0-9_]); every span name is ``engine`` or ``engine.phase`` with
   a category naming the subsystem.
2. Docs completeness: every published metric name is listed in the
   "Current metrics by engine" bullets of docs/observability.md, and
   every span (name, category) appears in its span table.
3. No doc rot: every metric leaf and span the docs list exists in
   src/ -- deleting or renaming instrumentation without updating the
   tables fails the lint in the other direction.

The scan is textual (string-literal publish sites only), which is
exactly the repo convention: obs names must be literals because the
registries store the pointers. A name built at runtime would defeat
both this lint and the registry contract, so it is already a bug.

Usage: scripts/lint_metrics.py [--repo ROOT]   (exit 0 clean, 1 dirty)
"""

import argparse
import pathlib
import re
import sys

METRIC_NAME = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){1,3}$")
SPAN_NAME = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){0,2}$")
SPAN_CATEGORIES = {"petri", "sim", "verify", "solver"}

ADD_OR_RECORD = re.compile(
    r"\bregistry\.(add|record)\(\s*\"([^\"]+)\"")
SCOPED_SPAN = re.compile(
    r"\bScopedSpan\s+\w+\(\s*\"([^\"]+)\"\s*,\s*\"([^\"]+)\"\s*\)")
# Conditional spans held in std::optional<ScopedSpan> arm via
# emplace; the variable-name convention (*_span / span) scopes the
# match to trace spans.
SPAN_EMPLACE = re.compile(
    r"\b\w*span\w*\.emplace\(\s*\"([^\"]+)\"\s*,\s*\"([^\"]+)\"\s*\)")

# docs/observability.md structure markers.
FAMILY_BULLET = re.compile(
    r"^- `([a-z0-9_.]+)\.\*`\s+—\s+(.*)$")
BACKTICK = re.compile(r"`([a-z0-9_.]+)`")
DOT_TOKEN = re.compile(r"`(\.[a-z0-9_.]+)`")


def fail(errors):
    for err in errors:
        print(f"lint_metrics: {err}", file=sys.stderr)
    print(f"lint_metrics: {len(errors)} finding(s)", file=sys.stderr)
    return 1


def scan_sources(src_root):
    """Returns (counters, histograms, spans, errors).

    counters/histograms map name -> first "file:line"; spans likewise
    (keyed by (name, category))."""
    counters, histograms, spans = {}, {}, {}
    errors = []
    for path in sorted(src_root.rglob("*.cpp")):
        rel = path.relative_to(src_root.parent)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            where = f"{rel}:{lineno}"
            for kind, name in ADD_OR_RECORD.findall(line):
                target = counters if kind == "add" else histograms
                target.setdefault(name, where)
            for name, category in SCOPED_SPAN.findall(line):
                spans.setdefault((name, category), where)
            for name, category in SPAN_EMPLACE.findall(line):
                spans.setdefault((name, category), where)
    return counters, histograms, spans, errors


def parse_docs(doc_path):
    """Returns (metric_names, span_names, span_categories, errors).

    metric_names is the full set of documented counter/histogram
    names, expanded from the family bullets; span_names/categories
    from the span table."""
    text = doc_path.read_text()
    errors = []

    # --- metric families ---------------------------------------------------
    # Bullets run until the next bullet or blank line; join
    # continuation lines first.
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip() == "Current metrics by engine:":
            start = i + 1
            break
    if start is None:
        return set(), set(), {}, ["docs: 'Current metrics by engine:' "
                                  "section not found"]
    bullets = []
    for line in lines[start:]:
        if line.startswith("## "):
            break
        if line.startswith("- "):
            bullets.append(line)
        elif line.startswith("  ") and bullets:
            bullets[-1] += " " + line.strip()

    metric_names = set()
    for bullet in bullets:
        match = FAMILY_BULLET.match(bullet)
        if not match:
            errors.append(f"docs: unparseable metrics bullet: {bullet!r}")
            continue
        prefix, body = match.groups()
        # Full dotted names in backticks document themselves; dotted
        # suffixes (`.basis_final`) expand against the family prefix.
        for token in BACKTICK.findall(body):
            if token.startswith("."):
                continue
            metric_names.add(token)
        for token in DOT_TOKEN.findall(body):
            metric_names.add(prefix + token)
        # Remaining plain words are leaves of the family; strip
        # parentheticals and backticked regions before splitting.
        plain = re.sub(r"\([^)]*\)", " ", body)
        plain = re.sub(r"histograms?\s+(`[^`]*`(,\s*)?)+", " ", plain)
        plain = re.sub(r"`[^`]*`", " ", plain)
        for chunk in plain.split(","):
            for leaf in chunk.split("/"):
                leaf = leaf.strip().strip(";").strip()
                if re.fullmatch(r"[a-z0-9_]+", leaf):
                    metric_names.add(f"{prefix}.{leaf}")
    if not metric_names:
        errors.append("docs: no metric names parsed from the engine bullets")

    # --- span table --------------------------------------------------------
    span_names = set()
    span_categories = {}
    in_table = False
    for line in lines:
        if line.startswith("| Span | Category |"):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            cells = [c.strip() for c in line.strip("|").split("|")]
            if len(cells) < 2 or set(cells[0]) <= {"-", " "}:
                continue
            names_cell, category_cell = cells[0], cells[1]
            base = None
            for token in BACKTICK.findall(names_cell):
                if token.startswith("."):
                    if base is None:
                        errors.append(
                            f"docs: span suffix {token!r} with no base "
                            f"in row {line!r}")
                        continue
                    name = base + token
                else:
                    name = token
                    if base is None:
                        base = token
                span_names.add(name)
                span_categories[name] = category_cell
    if not span_names:
        errors.append("docs: no span table parsed")
    return metric_names, span_names, span_categories, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=None,
                        help="repo root (default: the script's parent's parent)")
    args = parser.parse_args()
    root = pathlib.Path(args.repo) if args.repo else \
        pathlib.Path(__file__).resolve().parent.parent
    src_root = root / "src"
    doc_path = root / "docs" / "observability.md"
    if not src_root.is_dir() or not doc_path.is_file():
        return fail([f"missing {src_root} or {doc_path}"])

    counters, histograms, spans, errors = scan_sources(src_root)
    doc_metrics, doc_spans, doc_span_categories, doc_errors = \
        parse_docs(doc_path)
    errors.extend(doc_errors)

    published = {}
    published.update(counters)
    published.update(histograms)

    # 1. Naming convention.
    for name, where in sorted(published.items()):
        if not METRIC_NAME.match(name):
            errors.append(
                f"{where}: metric {name!r} violates the engine.metric "
                "naming convention (lowercase dotted [a-z0-9_] segments)")
    for (name, category), where in sorted(spans.items()):
        if not SPAN_NAME.match(name):
            errors.append(
                f"{where}: span {name!r} violates the engine[.phase] "
                "naming convention")
        if category not in SPAN_CATEGORIES:
            errors.append(
                f"{where}: span {name!r} category {category!r} is not a "
                f"subsystem ({', '.join(sorted(SPAN_CATEGORIES))})")

    # 2. Instrumentation documented.
    for name, where in sorted(published.items()):
        if name not in doc_metrics:
            errors.append(
                f"{where}: metric {name!r} is not listed in "
                "docs/observability.md (Current metrics by engine)")
    for (name, category), where in sorted(spans.items()):
        if name not in doc_spans:
            errors.append(
                f"{where}: span {name!r} is not in the span table of "
                "docs/observability.md")
        elif doc_span_categories.get(name) != category:
            errors.append(
                f"{where}: span {name!r} category {category!r} does not "
                f"match the documented {doc_span_categories.get(name)!r}")

    # 3. Docs not stale.
    for name in sorted(doc_metrics - set(published)):
        errors.append(
            f"docs/observability.md documents metric {name!r}, which no "
            "src/ call site publishes")
    for name in sorted(doc_spans - {n for (n, _) in spans}):
        errors.append(
            f"docs/observability.md documents span {name!r}, which no "
            "src/ ScopedSpan records")

    if errors:
        return fail(errors)
    print(f"lint_metrics: OK ({len(published)} metrics, {len(spans)} spans "
          "cross-checked against docs/observability.md)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
