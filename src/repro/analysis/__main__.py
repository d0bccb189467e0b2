"""simlint command line: ``python -m repro.analysis [paths...]``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro
from repro.analysis import all_rules, analyze_modules, load_paths
from repro.analysis.core import Violation


def _default_target() -> Path:
    """The installed ``repro`` package source tree."""
    return Path(repro.__file__).resolve().parent


def _sarif(violations: Sequence[Violation]) -> Dict[str, object]:
    """Render violations as a SARIF 2.1.0 log.

    Minimal but valid: one run, one result per violation, the full rule
    catalogue as the tool's ``rules`` array so viewers (and GitHub code
    scanning, which annotates PR diffs from uploaded SARIF) can show each
    rule's description next to the finding.
    """
    rules = [
        {
            "id": rule_obj.rule_id,
            "name": rule_obj.name,
            "shortDescription": {"text": rule_obj.doc},
        }
        for rule_obj in all_rules()
    ]
    index_of = {entry["id"]: i for i, entry in enumerate(rules)}
    results = [
        {
            "ruleId": violation.rule,
            **({"ruleIndex": index_of[violation.rule]}
               if violation.rule in index_of else {}),
            "level": "error",
            "message": {"text": f"[{violation.name}] {violation.message}"},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": violation.path},
                    "region": {"startLine": violation.line},
                },
            }],
        }
        for violation in violations
    ]
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "simlint",
                    "informationUri":
                        "https://github.com/example/repro/blob/main/docs/analysis.md",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def _list_rules() -> int:
    for rule_obj in all_rules():
        scope = ", ".join(p or "<tree>" for p in rule_obj.packages)
        print(f"{rule_obj.rule_id}  {rule_obj.name:<22} [{scope}]")
        print(f"        {rule_obj.doc}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: static contract & determinism analysis for "
                    "the MicroLib component model",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze "
                             "(default: the repro package)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE",
                        help="only run rules whose id starts with RULE or "
                             "whose name equals RULE (repeatable)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="text (human), json (raw records), or sarif "
                             "(SARIF 2.1.0, for CI diff annotation)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()

    targets: List[Path] = (
        [Path(p) for p in args.paths] if args.paths else [_default_target()]
    )
    for target in targets:
        if not target.exists():
            print(f"error: no such path: {target}", file=sys.stderr)
            return 2

    modules, errors = load_paths(targets)
    violations = errors + analyze_modules(modules, select=args.select)

    if args.format == "json":
        print(json.dumps(
            [violation.__dict__ for violation in violations], indent=1
        ))
    elif args.format == "sarif":
        print(json.dumps(_sarif(violations), indent=1))
    else:
        for violation in violations:
            print(violation.render())
        n_files = len(modules) + len(errors)
        summary = (
            f"simlint: {len(violations)} violation"
            f"{'' if len(violations) == 1 else 's'} in {n_files} files"
        )
        print(summary, file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
