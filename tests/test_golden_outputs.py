"""Every output of a small sweep of ``bva`` commands keeps its sha256.

The sweep runs ``cli.main`` in process: ``generate er|pa|planted``, then
``pipeline`` (csv, json, dot, and a run that exits 3), ``communities``,
``components``, ``boundary``, ``betweenness``, ``overlap`` (``--max-k`` and
``--ks``) and ``temporal`` on the planted graph, on a copy of it whose
tokens are strings (two of them need escaping in DOT), on a fixed event
stream, and ``pipeline`` and ``communities`` on a disconnected edge list
whose components Louvain accepts, skips below the threshold, or never sees
for want of edges. ``manifest.json`` is hashed without its
``elapsed_seconds`` line. A change that moves any output byte or exit code
fails here.
"""

import hashlib
import re

from boundary_vicinity.cli import main

GENERATE = [
    ("gen-planted", "generate planted --part-kind pa --n 40 --m 2 --k 6 --seed 1"),
    ("gen-er", "generate er --n 30 --p 0.08 --seed 2"),
    ("gen-pa", "generate pa --n 30 --m 2 --seed 3"),
]

# a bridged pair of triangles, a lone triangle, an isolated edge and two
# isolated nodes left by self-loop lines, with the components' rows interleaved
DISCONNECTED = "a b\nt1 t2\nb c\nx x\nt2 t3\nc d\nd e\ne1 e2\nc a\ny y\ne f\nt1 t3\nd f\n"

SWEEP = [
    ("pipeline-csv", "pipeline --input {planted} --seed 0"),
    ("pipeline-json", "pipeline --input {tokens} --seed 1 --format json"),
    ("pipeline-dot", "pipeline --input {tokens} --seed 0 --format dot"),
    ("pipeline-narrow", "pipeline --input {planted} --seed 2 --psrf-low 0.9999 "
                        "--psrf-high 1.0001 --max-batches 2 --walknum 4"),
    ("communities", "communities --input {tokens} --seed 2"),
    ("components", "components --input {er}"),
    ("boundary", "boundary --input {planted} --labels {planted_labels}"),
    ("betweenness", "betweenness --input {planted}"),
    ("betweenness-tokens", "betweenness --input {tokens}"),
    ("overlap-max-k", "overlap --a {scores} --b {betweenness} --max-k 15"),
    ("overlap-ks", "overlap --a {scores} --b {betweenness} --ks 1,5,20,60"),
    ("overlap-tokens", "overlap --a {tokens_scores} --b {tokens_betweenness} --max-k 8"),
    ("temporal", "temporal --input {planted} --events {events} --seed 0 --window 60"),
    ("pipeline-disconnected", "pipeline --input {disconnected} --seed 0 --q-threshold 0.2"),
    ("communities-disconnected", "communities --input {disconnected} --seed 1 "
                                 "--q-threshold 0.2"),
]

EXPECTED = {
    'gen-planted': '0',
    'gen-planted/graph.edges': '1120b1ae9f3d212d7efa056250f4ab7dde310e51628858f3bdb6cd3fc12cb92c',
    'gen-planted/planted_boundary.csv': 'a2c7bd808a7ce6c9a6730bf42a74bca8e32a8f064b36b24d6033cceb4dcf89ff',
    'gen-planted/planted_labels.csv': '2a81caa96997a36b19f6edd398ab96e674ac63e2059b02140b38916b42af5fc2',
    'gen-er': '0',
    'gen-er/graph.edges': 'ed856f665843d49009dedd2c6c39d616618f1c8ece9bfa8b604163adb5a650ba',
    'gen-pa': '0',
    'gen-pa/graph.edges': '2b1f9a292a611301b3065dc70ed86a062515eb59f33bff79f1802537fbf13d45',
    'pipeline-csv': '0',
    'pipeline-csv/boundary.csv': '25d5d5468a85d8c0e9af8970a1eae6a88dca6671f6279ee0df3fda46c55baa94',
    'pipeline-csv/communities.csv': '911a8afc019d741f9f7d81be637978e12681310f64cb5824493af54d00f156c8',
    'pipeline-csv/manifest.json': '6e8a2a36fd8f55d225028f53f9930e29960f60e8ab1803ded87a038407d08e0a',
    'pipeline-csv/scores.csv': 'd79103ebfaaf1285b5dd537f4fd0aba9e0aca806a83c26fc14e17422730fee5a',
    'pipeline-json': '0',
    'pipeline-json/boundary.csv': '340a3691331c00ae01d19b4a95345ccee0bff1353b7c50afad2413f70fe37252',
    'pipeline-json/communities.csv': '15c07a426f0ab8e0440e059bb47458c361486039c9b0fcbf6ff2a15464aa754f',
    'pipeline-json/manifest.json': 'c19a3021db2d4ea65d54d20e226baf0ba1844c11023a80f11ed170f614c67198',
    'pipeline-json/scores.csv': '78e97cd3d1b6d2b709ddb7e56ed88e55cf894abbac961f70a552d6907796ff1c',
    'pipeline-json/scores.json': '2a09ee45b3546e34a0a041574183e5ec9a699a90ccce3fe5a59ac9f8c22236f7',
    'pipeline-dot': '0',
    'pipeline-dot/boundary.csv': '6837884d8b1f7038bfc2fad61332355db8112c0608b50105ad9bffb4f4c799bc',
    'pipeline-dot/communities.csv': 'e9ebb2a18017963d4259170c82f82c5efffe91ad8dfb9656aedef2733c3451c8',
    'pipeline-dot/manifest.json': '6e8a2a36fd8f55d225028f53f9930e29960f60e8ab1803ded87a038407d08e0a',
    'pipeline-dot/scores.csv': 'a1d0cc0a7af94d6e1f28f61a031291722e326f0a4d242d36748d30f22018a6de',
    'pipeline-dot/scores.dot': '60d76b4453b4e9ff55de3100648826e29e03cd7792b5c9617fa245c07ca7822b',
    'pipeline-narrow': '3',
    'pipeline-narrow/boundary.csv': '700d27f130edcf48dfb4973bafde52cb4edba0b25cf29e65f5fc77b62cd0025e',
    'pipeline-narrow/communities.csv': '38c315a5d1e55899ca9236249603a8b918087813d55282d2975fe880f48ee040',
    'pipeline-narrow/manifest.json': '816dadb8bad85f7b0d0ae5db0b94811ef248edded2334b79ec15c64177a7a314',
    'pipeline-narrow/scores.csv': '44b79f14e4fb19979cac567fe94113c68030c074a0c7508d67b3e08f5841bf62',
    'communities': '0',
    'communities/communities.csv': '31460670c5687937880df8f48a3ea7200fe4ac2bc067ad9086e72e01988f46e5',
    'communities/communities.json': '0ca0cf04ba995d0fd55e4998ccbf0ceb42d365b4c3cc3d51c73378274057d487',
    'components': '0',
    'components/components.csv': '3cc483c5976549c63c277ceaade10693679527241f7633301a65eaf4b4803f77',
    'boundary': '0',
    'boundary/boundary.csv': 'f41303c8cfff34861c55cc63c6253b5ed88787d30723c917404dada66644fb30',
    'boundary/boundary_nodes.csv': 'fe12e2fc19a8d23e5b5f7b670f66d3e2a0c2eaa9a0f232d2f2792aa45bd3c2b5',
    'betweenness': '0',
    'betweenness/betweenness.csv': '1e0aa2e73626f0eb456b2142059fb6337d1e1b6b859091750ba904d1eecd8443',
    'betweenness-tokens': '0',
    'betweenness-tokens/betweenness.csv': '777f5d56c1d3d13fd95e13a2e9d3de5f8e9d1cd38e54ee2b2ebf6a7fcce24bfc',
    'overlap-max-k': '0',
    'overlap-max-k/overlap.csv': '47d3f5e5e3e1db45d6e6e7263347d3ae3c1b0f508ad30f8662ae1b899471c907',
    'overlap-ks': '0',
    'overlap-ks/overlap.csv': '6c1ba7e703ebdfcc1decd7d25fa8bff3bde6e1e1939402c5836ab34e68c94f42',
    'overlap-tokens': '0',
    'overlap-tokens/overlap.csv': '8ca409ac9f96850fefd0f82f62e6e8655e893e49ea6f939ec1a747c486585646',
    'temporal': '0',
    'temporal/spikes.json': '53f5e62ac4124e2309af997c052c8b3acc09aacfd692f8d9289394b52ad494c3',
    'temporal/temporal.csv': '5df4262616d5dbe614ce43b6a842e8c762062d2ce307e9729cf71925c8dd589f',
    'pipeline-disconnected': '0',
    'pipeline-disconnected/boundary.csv': '90ee1845ff6e3a899cc1498cf5bebded39703d62dad56b1e94ecfb7978d53624',
    'pipeline-disconnected/communities.csv': 'e2c10ed687c27fcac8cb04f88b16007137df5db4d0d77536604c570e27514983',
    'pipeline-disconnected/manifest.json': '65a3499b13516659ff4ed930705ef156ca72cb2083083349b2002964c62063a3',
    'pipeline-disconnected/scores.csv': '077926985f9af00032b02ac92143aa186790cf599ce2d731fbcc9fcdd80fdaa4',
    'communities-disconnected': '0',
    'communities-disconnected/communities.csv': '94122bddd86b9e104d3a954d41c333d703d2e57de9fe47038f5b080af536952e',
    'communities-disconnected/communities.json': 'f4a842d7ed440aa2b07bbe7eb31fd71f9b06fb08ba971a6b18f47aaff4dd418a',
}


def token(v: str) -> str:
    special = {"0": 'a"b', "1": "c\\"}
    return special.get(v, f"n{(int(v) * 37) % 1000}")


def write_inputs(gen, tokens, events) -> None:
    """The planted graph with string tokens, and an event stream with a burst
    of the planted boundary nodes, in a scrambled order."""
    tokens.write_text("".join(
        line + "\n" if line.startswith("#") else " ".join(map(token, line.split())) + "\n"
        for line in (gen / "graph.edges").read_text().splitlines()))
    boundary = [int(v) for v in (gen / "planted_boundary.csv").read_text().splitlines()[2:]]
    rows = [(1_600_000_000 + (i * 7919) % 1200, (i * 31) % 120) for i in range(3000)]
    rows += [(1_600_000_600 + v % 60, v) for v in boundary for _ in range(4)]
    events.write_text("epoch_seconds,node_id\n" + "".join(
        f"{t},{v}\n" for t, v in sorted(rows, key=lambda row: (row[0] * 13) % 997)))


def run_sweep(root) -> dict[str, str]:
    """``run/file`` -> sha256 of every file the sweep writes, and ``run`` -> exit code."""
    got = {}
    paths = {
        "planted": root / "gen-planted" / "graph.edges",
        "planted_labels": root / "gen-planted" / "planted_labels.csv",
        "er": root / "gen-er" / "graph.edges",
        "tokens": root / "tokens.edges",
        "events": root / "events.csv",
        "disconnected": root / "disconnected.edges",
        "scores": root / "pipeline-csv" / "scores.csv",
        "betweenness": root / "betweenness" / "betweenness.csv",
        "tokens_scores": root / "pipeline-json" / "scores.csv",
        "tokens_betweenness": root / "betweenness-tokens" / "betweenness.csv",
    }
    for index, (run, command) in enumerate(GENERATE + SWEEP):
        if index == len(GENERATE):
            write_inputs(root / "gen-planted", paths["tokens"], paths["events"])
            paths["disconnected"].write_text(DISCONNECTED)
        out = root / run
        got[run] = str(main(command.format(**paths).split() + ["--out", str(out)]))
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = re.sub(rb'\n  "elapsed_seconds": [^\n]*\n', b"\n", data)
            got[f"{run}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return got


def test_sweep_outputs_keep_their_bytes(tmp_path):
    assert run_sweep(tmp_path) == EXPECTED
