"""Byte-identity of the deterministic artifacts against pinned SHA-256 digests.

The digests were taken before the code they guard was optimised: with one
BFS per vertex for the profile, and with a fresh multi-source BFS per
prefix of the anchor list and one full BFS per anchor in the checks.  A
kernel, refactor or formatting change that moves one byte of a certificate
or of the batch report fails here.  The instances are the fixed graphs of acceptance
criteria 9 and 10 plus generated graphs of n=50, 300, 600 and 1000 (the last
with 39 to 57 anchors, so long discovery-path replays are pinned), each
certified plainly and with ``use_max_degree``, and criterion 10's batch
sweep.  The girth-7 (n=300) and girth-8 (n=600) instances were pinned later,
before the certification pipeline was split into stages, from the output of
the pipeline as it then stood.  The generator-corpus digest (edge lists, or
the failure's attempt statistics) was taken while the generator still
rebuilt its candidate lists over all n vertices on every attempt.  The stdout digests of ``eccb compute
--json`` and ``eccb bound --json`` on every instance were taken while
``eccb compute`` still measured the profile, the girth and the degrees by
separate calls.
"""
from __future__ import annotations

import hashlib

import pytest

import eccbounds as eb
from eccbounds.bounds import evaluate_all, measure
from eccbounds.certify import certify
from eccbounds.cli import main as cli_main

INSTANCES = {
    "petersen": eb.petersen_graph,
    "heawood": eb.heawood_graph,
    "K4": lambda: eb.complete_graph(4),
    "K33": lambda: eb.complete_bipartite(3, 3),
    "hoffman-singleton": eb.hoffman_singleton_graph,
    "chain-3-5-4": lambda: eb.chain_graph(3, 5, 4)[0],
    "chain-3-6-2": lambda: eb.chain_graph(3, 6, 2)[0],
    "chain-3-6-3": lambda: eb.chain_graph(3, 6, 3)[0],
    "gen-n50-d3-g5-s77": lambda: eb.random_min_degree_girth(
        eb.GeneratorConfig(n=50, delta=3, g=5, seed=77)),
    # larger packings and matchings than the acceptance instances
    "gen-n300-d3-g5-s1": lambda: eb.random_min_degree_girth(
        eb.GeneratorConfig(n=300, delta=3, g=5, seed=1)),
    "gen-n300-d3-g6-s1": lambda: eb.random_min_degree_girth(
        eb.GeneratorConfig(n=300, delta=3, g=6, seed=1)),
    # girth beyond 6: 5 packing members at g=7, 7 matching edges at g=8
    "gen-n300-d3-g7-s1": lambda: eb.random_min_degree_girth(
        eb.GeneratorConfig(n=300, delta=3, g=7, seed=1)),
    "gen-n600-d3-g8-s1": lambda: eb.random_min_degree_girth(
        eb.GeneratorConfig(n=600, delta=3, g=8, seed=1)),
    # benchmark scale: 57 packing members and 39 matching edges
    "gen-n1000-d3-g5-s1": lambda: eb.random_min_degree_girth(
        eb.GeneratorConfig(n=1000, delta=3, g=5, seed=1)),
    "gen-n1000-d3-g6-s1": lambda: eb.random_min_degree_girth(
        eb.GeneratorConfig(n=1000, delta=3, g=6, seed=1)),
}

CERT_SHA256 = {
    "K33/plain":
        "2650b5c8c5a5fb2f8d93bc90a215a26461747b00bf1716a4e528699c2db397d1",
    "K33/maxdeg":
        "b81cbabab39c8c7dd344feeb9678ef65324e6ff289aba16612ed82a59714b8d2",
    "K4/plain":
        "baa38033e03f82d1633b25539d43f9cb9b79031872602abda9c0840ffb714cc3",
    "K4/maxdeg":
        "2cbfd2d23fe563429f74b24878c5ec3ab7577bb1da5920ee90c51b5da79c492c",
    "chain-3-5-4/plain":
        "089e5e10454585735b0cad4232969585edbb51198e13bb80f8128ff8f763df1e",
    "chain-3-5-4/maxdeg":
        "df4a52a8745e9938ab41ff58961a8be304f57ad338fdd342be8fd085f3286352",
    "chain-3-6-2/plain":
        "5a62d0cd26ab5511b83cd47dffac8dbb590d6b8756335a0f1d6d55fb56e23a60",
    "chain-3-6-2/maxdeg":
        "0f154b880e8952654e6c82300a6d57722fe4b4e44346477e51267cf571439f3f",
    "chain-3-6-3/plain":
        "43d2df3d6c90bc3055f53edd2e93a4d0112d7f73f1137f6a7d1935e37a28b539",
    "chain-3-6-3/maxdeg":
        "d47eff422d63f78b9f18d7adcf110d7d525d507f9f94cf92d8a3f41f9d7e8ccd",
    "gen-n300-d3-g5-s1/plain":
        "d4bd7e2c985844570b4bd7e398f45f37d7faf5d2f5078ba7d703849e167e4b54",
    "gen-n300-d3-g5-s1/maxdeg":
        "add07a821770adf06dde7d774817e79ceaaf97ead0e1f7ffd77474bd7d6eb57d",
    "gen-n300-d3-g6-s1/plain":
        "edc9cf403d1e4da1bcee0e4f3a2a3329c1457cae34386ef6c47db644ed02f9d0",
    "gen-n300-d3-g6-s1/maxdeg":
        "07c74b1126f8c70c66604b5aaf6936c5baed136a883920187d0e2b4c063b7547",
    "gen-n1000-d3-g5-s1/plain":
        "660a437109707ee1ffa7955c7b87465aa5bb55a042bdc9d1fa1c19031fce2688",
    "gen-n1000-d3-g5-s1/maxdeg":
        "5e6605a69e9e924f39c4b7b97d268eb56502d2b736e7603be0248a02fc274d99",
    "gen-n1000-d3-g6-s1/plain":
        "4a6b98948e90060b745321bc0fc24aa63419029b8f2d27c72e7f17c913e3909a",
    "gen-n1000-d3-g6-s1/maxdeg":
        "1b1720d09f62d286d7ad15561b7d9f59ffb49a5b8fa0fafbe2512716ba834551",
    "gen-n300-d3-g7-s1/plain":
        "4a5a549236a9d82e44f20e8f042066ba79b7aed3584c8aa524796439aa38d031",
    "gen-n300-d3-g7-s1/maxdeg":
        "cdf8d40c9ab3bfb0c47bc724165383304179364e0437ab5255728d45988c1d34",
    "gen-n600-d3-g8-s1/plain":
        "2cb31d6d4dc3437b96e1c44d99b3b47215bd54c850064280f6bbaa9cd20233ea",
    "gen-n600-d3-g8-s1/maxdeg":
        "880c7ff110850e0b1e09436d5a41e8fa29bbecd7a5dc86593e5298620670263e",
    "gen-n50-d3-g5-s77/plain":
        "359281f43fba091e9fb19c69242a06733f704b65917c12fe198827ab48ed17aa",
    "gen-n50-d3-g5-s77/maxdeg":
        "0b9271219748b8cb106c0291a1bda47937632548a7ccf9204c29ce3fcbb8959e",
    "heawood/plain":
        "9bb9ed186585ea67101b06fed82f8de09a9ce1a9655cab75a9662f0fd236e499",
    "heawood/maxdeg":
        "60eb7607deba5a473f5fe06aa639186931ae066d9b356ab35222be6911748fbc",
    "hoffman-singleton/plain":
        "683ed6039f4881f63b2b45507ee27a929fed581610ffe1dd16da08a77094fab3",
    "hoffman-singleton/maxdeg":
        "4b5307bd614a9ee98f7c4a75525ae2a8e7430c91bed1dd9c7892580463ea0d71",
    "petersen/plain":
        "0fc1514bd7cfe220f9bf7a2a1ee8edbf1e1ddab0fbc6f5e7334674d789e46468",
    "petersen/maxdeg":
        "53640e13f944fb535efebe885e0c4ca716bb08cc7f0a299a6df143c6ee62723c",
}


def _generator_corpus():
    """62 configurations, 13 of them failures, n from 4 to 1000."""
    out = []
    seed = 0
    for n in (10, 16, 30, 60, 120):
        for delta, g in ((2, 5), (3, 3), (3, 4), (3, 5), (3, 6),
                         (4, 4), (4, 5), (5, 3), (5, 5), (2, 7)):
            seed += 1
            out.append(eb.GeneratorConfig(n=n, delta=delta, g=g, seed=seed, max_restarts=4))
    for n, delta, g, seed in ((300, 3, 5, 101), (300, 4, 5, 102), (300, 3, 7, 103),
                              (500, 3, 6, 104), (1000, 3, 5, 105), (1000, 3, 6, 106),
                              (1000, 4, 5, 107), (1000, 2, 7, 108)):
        out.append(eb.GeneratorConfig(n=n, delta=delta, g=g, seed=seed))
    # infeasible or tight: every restart fails
    for n, delta, g, seed in ((4, 3, 4, 201), (8, 3, 5, 202), (12, 4, 5, 203), (40, 5, 6, 204)):
        out.append(eb.GeneratorConfig(n=n, delta=delta, g=g, seed=seed, max_restarts=3))
    return out


GENERATOR_CORPUS_SHA256 = "2d95abaaff859869cb7d1b927646aec49f60bda00f98b912b428eb48a8eec6d1"

# stdout of `eccb compute --json` and `eccb bound --json` on each instance
CLI_SHA256 = {
    "K33/bound":
        "516b2ad8ba568251e02dc67c4549da9ddd17c872a3bea4b368a2651f615ea866",
    "K33/compute":
        "a29aab4ed858749e749821da997aec3c8048646aaa4b640b6bc0056dc4a01bca",
    "K4/bound":
        "11643be7c7af8399b2f864fc56e088ba8e2d865011c885493859dbe55994e4f9",
    "K4/compute":
        "10b76ee670eb04d667f8875650b13dd48562e1790f4c061377a002d2bcdf4acd",
    "chain-3-5-4/bound":
        "7fbd5da8d935438023d22a4435cd8ae4fc11531a9a3c1633feacd50f513d68ee",
    "chain-3-5-4/compute":
        "f64829b38354dc8d1347354004303747ec5752385b29c995aaf0dccd772c05ae",
    "chain-3-6-2/bound":
        "801c2104cdf0a0ea9264c8957b5f79841d91e2b25aa6c7dd030822aeeb834f22",
    "chain-3-6-2/compute":
        "728b71f9a0523087557c393fc3b718ea2189512ddc6861461659a0a07b7c6233",
    "chain-3-6-3/bound":
        "eb8734c546797d66221db80cc2bb370dd4651b620dd5c62b741edc0d6c667c22",
    "chain-3-6-3/compute":
        "b8f4b4ce38f42e5950fee2dbbc61b0efe84de85015639c3a92fe5f269b40570e",
    "gen-n1000-d3-g5-s1/bound":
        "590691d418f44062b86d5a6519dcd0ad1b37d6148d95edb50612795498ccd98c",
    "gen-n1000-d3-g5-s1/compute":
        "8791eeab267e830239ee4759506e718750968743aca1778344db5d476e002452",
    "gen-n1000-d3-g6-s1/bound":
        "8c158114a5c5b61a507c99bff45e4e9a07d61f317263e042a55b435022299910",
    "gen-n1000-d3-g6-s1/compute":
        "3ff25e282cb1ad08a980660c1465e8b116ea84330c35fefa3a5bfddb92360803",
    "gen-n300-d3-g5-s1/bound":
        "fc6d216762736e2dfd642f0da2ff35e0fcac6b705489e6c0784ec2f84d358e9b",
    "gen-n300-d3-g5-s1/compute":
        "7718a04dc75397d916289c919f9f0abecf452f21a200b10f7b07077695fc8c0d",
    "gen-n300-d3-g6-s1/bound":
        "ce8c0389b2e039aa8c7ce399ab473b33f3ac15f51dc650cbd0f50df6d64c315a",
    "gen-n300-d3-g6-s1/compute":
        "4f78f73b656dccf0dcd3da90453d89e1ae009a42807c89864e33114950e55c79",
    "gen-n300-d3-g7-s1/bound":
        "ddb950e59a3c5839c1eea8fe967f0607ea2cc422f7c579bbf17691f86e5ba807",
    "gen-n300-d3-g7-s1/compute":
        "c1b5a8f5a86667b853acebe4e4ce38ff24efd172fb89d66d23e9618e111e8f4b",
    "gen-n600-d3-g8-s1/bound":
        "05a00bcf21384d36ad6c5ca2e87156847ee6ad2582c6f6b2955a514995cf568f",
    "gen-n600-d3-g8-s1/compute":
        "b42c18c503114f18108d53b17db9454aba87af0bf4a349a49e9a9cf0de97e698",
    "gen-n50-d3-g5-s77/bound":
        "0fcf03522ae617c0c8dd345190bb675efe7428139965f5258cd2d75493eef08c",
    "gen-n50-d3-g5-s77/compute":
        "3906a07ce9360d61da4001ac020f00e4f5659f490388dd40832919d507f9b4ef",
    "heawood/bound":
        "98c9503819b84daeef298e484b6cd0f7ac005eb1728d0e0674b5088c4fe2a176",
    "heawood/compute":
        "eebfd7597b19a2e496cb8e1d4eaac31cba198c00122bd895ce836e9074bdf12c",
    "hoffman-singleton/bound":
        "937fe5829161c7611844b62c5e2426deb4ee905b344cf49d4a7cafac1173d181",
    "hoffman-singleton/compute":
        "f081b6cbc8b5c6b1705180e825746f8f5aee1a1b205070e0fa4149901ade02c5",
    "petersen/bound":
        "5e6f3369cd5b3b5412b27fa22237b73551dfe897fff5503298db6138f3927f4c",
    "petersen/compute":
        "6db8826dc4451404c2689d5715bb36d53344829851f330e72386abdb3d295764",
}

BATCH_ARGS = ["batch", "--delta", "3", "--g", "5", "--n", "40", "--count", "6", "--seed", "7"]
BATCH_CSV_SHA256 = "c36916d38b51fb49a00e77f9520620c39ce397dd8aba157f1a00ce9a6db26b52"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cert_json(name: str, use_max_degree: bool) -> str:
    return certify(INSTANCES[name](), use_max_degree=use_max_degree).to_json()


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("use_max_degree", [False, True], ids=["plain", "maxdeg"])
def test_certificate_json_digest(name, use_max_degree):
    key = f"{name}/{'maxdeg' if use_max_degree else 'plain'}"
    assert _sha256(_cert_json(name, use_max_degree).encode()) == CERT_SHA256[key]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_measured_graph_gives_the_same_artifacts(name):
    g = INSTANCES[name]()
    m = measure(g)
    assert [r.to_json_dict() for r in evaluate_all(m)] == \
        [r.to_json_dict() for r in evaluate_all(g)]
    for use_max_degree in (False, True):
        key = f"{name}/{'maxdeg' if use_max_degree else 'plain'}"
        assert _sha256(certify(m, use_max_degree).to_json().encode()) == CERT_SHA256[key]


def test_batch_report_digest(tmp_path):
    assert cli_main(BATCH_ARGS + ["--out", str(tmp_path)]) == 0
    assert _sha256((tmp_path / "report.csv").read_bytes()) == BATCH_CSV_SHA256


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("command", ["compute", "bound"])
def test_cli_json_digest(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.el"
    path.write_text(eb.emit_edge_list(INSTANCES[name]()))
    assert cli_main([command, str(path), "--json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == CLI_SHA256[f"{name}/{command}"]


def test_generator_corpus_digest():
    entries = []
    for cfg in _generator_corpus():
        out = eb.random_min_degree_girth(cfg)
        entries.append(f"n={cfg.n} delta={cfg.delta} g={cfg.g} seed={cfg.seed} "
                       f"restarts={cfg.max_restarts}\n")
        if isinstance(out, eb.GenerationFailure):
            entries.append(f"failure restarts={out.restarts} attempts={out.attempts} "
                           f"reason={out.reason}\n")
        else:
            entries.append(eb.emit_edge_list(out, cfg))
    assert _sha256("".join(entries).encode()) == GENERATOR_CORPUS_SHA256
