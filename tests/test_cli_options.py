"""The CLI's option strings are an interface: generating the figure
commands from the experiment table must not add, drop or rename a flag
of any command that existed before it."""

import argparse

from repro.cli import build_parser

_OBSERVE = {"--trace", "--scrape-interval", "--dashboard"}

#: Every subcommand's option strings (``-h``/``--help`` aside) as they
#: were when the figure commands were hand-written.
PINNED_OPTIONS = {
    "list": set(),
    "fig01": {"--rate", "--count", *_OBSERVE},
    "fig02": set(),
    "fig03": {"--duration", *_OBSERVE},
    "fig07": {"--duration", "--jobs", *_OBSERVE},
    "fig08": {"--rate", "--count", *_OBSERVE},
    "fig09": {"--rates", "--count", "--jobs", *_OBSERVE},
    "fig10": _OBSERVE,
    "fig11": _OBSERVE,
    "fig12": {"--count", "--jobs", *_OBSERVE},
    "fig13": {"--users", "--turns", *_OBSERVE},
    "fig14": {"--gpus"},
    "fig18": {"--duration", *_OBSERVE},
    "resilience": {"--faults", "--duration", "--jobs", "--audit", "--postmortem-dir",
                   *_OBSERVE},
    "observe": {"--duration", "--metrics", "--report", "--no-faults", "--postmortem-dir",
                *_OBSERVE},
    "audit": {"--duration"},
    "tables": set(),
    "e2e": set(),
    "all": {"--out", "--only", "--jobs", "--cache-dir", "--no-cache"},
    "replicate": {"--only", "--out", "--report", "--cache-dir", "--no-cache", "--list",
                  "--jobs"},
    "sweep": {"--rates", "--count", "--jobs", *_OBSERVE},
    "frontier": {"--rates", "--policies", "--duration", "--servers", "--workload", "--out",
                 "--cache-dir", "--no-cache", "--jobs"},
}


def test_pre_existing_subcommands_keep_their_option_strings():
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, pinned in PINNED_OPTIONS.items():
        options = {
            opt
            for action in subparsers.choices[name]._actions
            for opt in action.option_strings
        } - {"-h", "--help"}
        assert options == pinned, f"aqua-repro {name}: {sorted(options ^ pinned)}"
