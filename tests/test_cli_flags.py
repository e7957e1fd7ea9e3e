"""Every flag a subcommand parses is read by some run of that subcommand.

Each run parses into a namespace that records attribute reads, then runs
the command on a small input. A flag that no run reads selects nothing.
"""

import argparse

import pytest

from boundary_vicinity.cli import build_parser, main

# `bench/run.py` passes --threads to `bva pipeline`, so the flag stays though
# it selects nothing (ROADMAP item 2)
UNREAD_BY_DESIGN = {"threads"}

# per subcommand, runs that together read every flag; "{d}" is the input directory
RUNS = {
    "pipeline": [["pipeline", "--input", "{d}/graph.edges", "--format", "json"]],
    "components": [["components", "--input", "{d}/graph.edges"]],
    "communities": [["communities", "--input", "{d}/graph.edges"]],
    "boundary": [["boundary", "--input", "{d}/graph.edges",
                  "--labels", "{d}/communities.csv"]],
    "betweenness": [["betweenness", "--input", "{d}/graph.edges"]],
    "overlap": [["overlap", "--a", "{d}/scores.csv", "--b", "{d}/betweenness.csv",
                 "--ks", "1,2"],
                ["overlap", "--a", "{d}/scores.csv", "--b", "{d}/betweenness.csv"]],
    "generate": [["generate", "er", "--n", "30", "--p", "0.2"],
                 ["generate", "pa", "--n", "30", "--m", "2"],
                 ["generate", "planted", "--n", "30", "--p", "0.3", "--k", "4"]],
    "temporal": [["temporal", "--input", "{d}/graph.edges", "--events", "{d}/events.csv"]],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    (d / "graph.edges").write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
    (d / "events.csv").write_text("".join(f"{t * 7},{t % 6}\n" for t in range(200)))
    for command in ("communities", "pipeline", "betweenness"):
        assert main([command, "--input", str(d / "graph.edges"), "--out", str(d)]) == 0
    return d


def parsed_and_read(argv: list[str]) -> tuple[set[str], set[str]]:
    """The attributes ``argv`` parses to, and those its command reads while it runs."""
    reads: set[str] = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv, namespace=Recording())
    reads.clear()
    assert args.func(args) == 0, argv
    return set(vars(args)) - {"command", "func"}, reads


def test_every_subcommand_has_runs():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(commands.choices) == set(RUNS)


@pytest.mark.parametrize("command", sorted(RUNS))
def test_every_parsed_flag_is_read(command, inputs, tmp_path):
    parsed: set[str] = set()
    read: set[str] = set()
    for i, template in enumerate(RUNS[command]):
        argv = [arg.format(d=inputs) for arg in template] + ["--out", str(tmp_path / str(i))]
        run_parsed, run_read = parsed_and_read(argv)
        parsed |= run_parsed
        read |= run_read
    unread = sorted(f"--{name.replace('_', '-')}" for name in parsed - read - UNREAD_BY_DESIGN)
    assert not unread, f"bva {command} parses {', '.join(unread)} but never reads it"
