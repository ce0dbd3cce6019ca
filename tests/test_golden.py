"""Golden CLI output: sha256 digests of stdout and of every written file.

The digests pin the byte-exact output of ``build`` (JSON and DOT),
``stats``, ``export-dot`` and all-output ``eval`` for each construction at
n=4, ``verify --dump`` of every identity at n=3, d=2 over Z/4 and over
the rationals, three ``verify-all`` grids and one ``stats --formula`` run.  Three more pin the
text of every output of ``expand_all`` on one program per construction, and
one pins the gradient builder's JSON, DOT and statistics over its whole
grid: int, mod:6 and rat, each with every 1 <= d <= n <= 8.  A
refactor of the graph core must leave every digest unchanged.

To print the digests of the current code (after an intended output
change), run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from typing import Dict, List, Tuple

import pytest

from abpc import build_bivariate_abp, build_charzero_abp, build_gradient_abp, expand_all
from abpc.cli import main
from abpc.graph import graph_to_dot, graph_to_json_dict
from abpc.rings import descriptor_from_spec

PROGRAMS = [("gradient", "int"), ("gradient", "mod:6"), ("gradient", "rat"),
            ("bivariate", "int"), ("bivariate", "mod:6"), ("bivariate", "rat"),
            ("charzero", "rat")]

MATRIX = {
    "int": '[["2","-1","0","3"],["1","4","-2","0"],["0","5","1","-3"],["7","0","2","1"]]',
    "mod:6": '[["2","5","0","3"],["1","4","4","0"],["0","5","1","3"],["1","0","2","1"]]',
    "rat": '[["1/2","-1","0","3"],["1","4/3","-2","0"],["0","5","1","-3/4"],["7","0","2","1"]]',
}

IDENTITIES = ("bivariate_ch", "cayley_hamilton", "adjugate", "trace_ch", "girard_newton",
              "samuelson_entry", "cpc_recursion", "rnd_block", "transition_product")


def _cases() -> Dict[str, Tuple[List[List[str]], List[str]]]:
    """Case name -> (argv list run in order, files whose bytes are pinned)."""
    cases = {}
    for construction, ring in PROGRAMS:
        tag = f"{construction}-{ring}"
        build = ["build", "--construction", construction, "--n", "4", "--d", "4",
                 "--ring", ring, "--out", "g.json", "--dot", "g.dot"]
        cases[f"build/{tag}"] = ([build], ["g.json", "g.dot"])
        cases[f"stats/{tag}"] = ([build, ["stats", "g.json"]], [])
        cases[f"export-dot/{tag}"] = ([build, ["export-dot", "g.json"]], [])
        cases[f"export-dot-out/{tag}"] = (
            [build, ["export-dot", "g.json", "--out", "e.dot"]], ["e.dot"])
        cases[f"eval/{tag}"] = ([build, ["eval", "g.json", "--matrix", MATRIX[ring]]], [])
    for identity in IDENTITIES:
        cases[f"verify-dump/{identity}"] = (
            [["verify", "--identity", identity, "--n", "3", "--d", "2", "--ring", "mod:4",
              "--dump"]], [])
        cases[f"verify-dump-rat/{identity}"] = (
            [["verify", "--identity", identity, "--n", "3", "--d", "2", "--ring", "rat",
              "--dump"]], [])
    cases["verify-all/mod:4"] = (
        [["verify-all", "--n-max", "3", "--d-max", "3", "--ring", "mod:4"]], [])
    cases["verify-all/int-4-4"] = (
        [["verify-all", "--n-max", "4", "--d-max", "4", "--ring", "int"]], [])
    cases["verify-all/rat-4-4"] = (
        [["verify-all", "--n-max", "4", "--d-max", "4", "--ring", "rat"]], [])
    cases["stats-formula/6"] = ([["stats", "--formula", "--n", "6"]], [])
    return cases


CASES = _cases()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str) -> Dict[str, str]:
    """Exit code and digests of the last command's stdout and the pinned files."""
    argvs, files = CASES[name]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
            result = {"code": str(code), "stdout": _sha(out.getvalue().encode("utf-8"))}
            for path in files:
                with open(path, "rb") as fh:
                    result[path] = _sha(fh.read())
        finally:
            os.chdir(cwd)
    return result


GOLDEN = {
    'build/bivariate-int': {'code': '0', 'stdout': '2a1efb68327c0d4148279876a008e23fd89529fb8d355d5579aaa9078d6d6a91', 'g.json': '3c22afb859da3c469f2d9dc9ab183d7ea04f07cf96c948059d83be5667b58853', 'g.dot': 'a60f453b3bc9ac0ba7de0ecd952bad40f5b77c99d15c3fa24b95716afb662803'},
    'build/bivariate-mod:6': {'code': '0', 'stdout': '2a1efb68327c0d4148279876a008e23fd89529fb8d355d5579aaa9078d6d6a91', 'g.json': '9f07f1ce97b5f0c722f08508450d4a2082775e294a703bbd9e82c98e9f9f2070', 'g.dot': '3d297a554ef5142f063a440e88ab1c6e3106b1d9fb6e666acf98c9e0a64355de'},
    'build/bivariate-rat': {'code': '0', 'stdout': '2a1efb68327c0d4148279876a008e23fd89529fb8d355d5579aaa9078d6d6a91', 'g.json': 'ad5be0bc6ac428058fb1c97db56f048e6222d08d1420cf3838f3f67d968e16f3', 'g.dot': 'bb43dfc4110a77adc51b1d90c415f368638d1e38114cfe3f8b5b737fe9d5079c'},
    'build/charzero-rat': {'code': '0', 'stdout': '2a1efb68327c0d4148279876a008e23fd89529fb8d355d5579aaa9078d6d6a91', 'g.json': '3786992225e0009b0a707f49d3c294c52d1d3f3e71b971d9212dc84f9ab3ac2f', 'g.dot': '9a5788388715ea0ad9d2c44e0fcdad7861063724938c0b22494c0883e109ea47'},
    'build/gradient-int': {'code': '0', 'stdout': '2a1efb68327c0d4148279876a008e23fd89529fb8d355d5579aaa9078d6d6a91', 'g.json': 'cca29106118cf43807a092050a083a8e0e9d4f0743b9565b7ea0e4c2e3bc9cbf', 'g.dot': '5155bad05769913753d4c370572ddf0a7591baa6916743741193e493ed1d8300'},
    'build/gradient-mod:6': {'code': '0', 'stdout': '2a1efb68327c0d4148279876a008e23fd89529fb8d355d5579aaa9078d6d6a91', 'g.json': 'f5e8c5ae6c49c94789622f36c82d48ad6f9edbdd21b1fac7b53b2d4328c3600b', 'g.dot': 'ba36a2b3560d04d20b5c86a88e968b67a5cd12e5b2b8dd52e57d955d88614c53'},
    'build/gradient-rat': {'code': '0', 'stdout': '2a1efb68327c0d4148279876a008e23fd89529fb8d355d5579aaa9078d6d6a91', 'g.json': '882ed06b284b187c82894b3bfbc0260e9b81fa53ef6f22d28d328227ee1c5890', 'g.dot': '4faba010c48d31a8f5eb94427c9870ef67e5a4c639c921800f3019fe102c6b7a'},
    'eval/bivariate-int': {'code': '0', 'stdout': 'ab37249f6ba46ac10933e960920a9c8fad870f8522296f8bd808cda2310164b7'},
    'eval/bivariate-mod:6': {'code': '0', 'stdout': '7531830ef25787dc63cc073e78cbc56494642230379f31ed1287ab045f1f463c'},
    'eval/bivariate-rat': {'code': '0', 'stdout': '1654e7b464f7a6800618a6c10e73236d8a4eaf8f9fa27f0b0ec1b5918174f0ed'},
    'eval/charzero-rat': {'code': '0', 'stdout': '4d840af8f3e0ee6f18cb71da3302bfda3226d52864c8458534bd2dd1039f7134'},
    'eval/gradient-int': {'code': '0', 'stdout': 'ab37249f6ba46ac10933e960920a9c8fad870f8522296f8bd808cda2310164b7'},
    'eval/gradient-mod:6': {'code': '0', 'stdout': '7531830ef25787dc63cc073e78cbc56494642230379f31ed1287ab045f1f463c'},
    'eval/gradient-rat': {'code': '0', 'stdout': '1654e7b464f7a6800618a6c10e73236d8a4eaf8f9fa27f0b0ec1b5918174f0ed'},
    'export-dot-out/bivariate-int': {'code': '0', 'stdout': 'b90da3a6b609f532c93af9249066744624ef78343ee0ced8fa36ed7bb3334114', 'e.dot': 'a60f453b3bc9ac0ba7de0ecd952bad40f5b77c99d15c3fa24b95716afb662803'},
    'export-dot-out/bivariate-mod:6': {'code': '0', 'stdout': 'b90da3a6b609f532c93af9249066744624ef78343ee0ced8fa36ed7bb3334114', 'e.dot': '3d297a554ef5142f063a440e88ab1c6e3106b1d9fb6e666acf98c9e0a64355de'},
    'export-dot-out/bivariate-rat': {'code': '0', 'stdout': 'b90da3a6b609f532c93af9249066744624ef78343ee0ced8fa36ed7bb3334114', 'e.dot': 'bb43dfc4110a77adc51b1d90c415f368638d1e38114cfe3f8b5b737fe9d5079c'},
    'export-dot-out/charzero-rat': {'code': '0', 'stdout': 'b90da3a6b609f532c93af9249066744624ef78343ee0ced8fa36ed7bb3334114', 'e.dot': '9a5788388715ea0ad9d2c44e0fcdad7861063724938c0b22494c0883e109ea47'},
    'export-dot-out/gradient-int': {'code': '0', 'stdout': 'b90da3a6b609f532c93af9249066744624ef78343ee0ced8fa36ed7bb3334114', 'e.dot': '5155bad05769913753d4c370572ddf0a7591baa6916743741193e493ed1d8300'},
    'export-dot-out/gradient-mod:6': {'code': '0', 'stdout': 'b90da3a6b609f532c93af9249066744624ef78343ee0ced8fa36ed7bb3334114', 'e.dot': 'ba36a2b3560d04d20b5c86a88e968b67a5cd12e5b2b8dd52e57d955d88614c53'},
    'export-dot-out/gradient-rat': {'code': '0', 'stdout': 'b90da3a6b609f532c93af9249066744624ef78343ee0ced8fa36ed7bb3334114', 'e.dot': '4faba010c48d31a8f5eb94427c9870ef67e5a4c639c921800f3019fe102c6b7a'},
    'export-dot/bivariate-int': {'code': '0', 'stdout': 'a60f453b3bc9ac0ba7de0ecd952bad40f5b77c99d15c3fa24b95716afb662803'},
    'export-dot/bivariate-mod:6': {'code': '0', 'stdout': '3d297a554ef5142f063a440e88ab1c6e3106b1d9fb6e666acf98c9e0a64355de'},
    'export-dot/bivariate-rat': {'code': '0', 'stdout': 'bb43dfc4110a77adc51b1d90c415f368638d1e38114cfe3f8b5b737fe9d5079c'},
    'export-dot/charzero-rat': {'code': '0', 'stdout': '9a5788388715ea0ad9d2c44e0fcdad7861063724938c0b22494c0883e109ea47'},
    'export-dot/gradient-int': {'code': '0', 'stdout': '5155bad05769913753d4c370572ddf0a7591baa6916743741193e493ed1d8300'},
    'export-dot/gradient-mod:6': {'code': '0', 'stdout': 'ba36a2b3560d04d20b5c86a88e968b67a5cd12e5b2b8dd52e57d955d88614c53'},
    'export-dot/gradient-rat': {'code': '0', 'stdout': '4faba010c48d31a8f5eb94427c9870ef67e5a4c639c921800f3019fe102c6b7a'},
    'stats-formula/6': {'code': '0', 'stdout': '9116508e6579b656163731e88a94f3a6e0de46f8a5115d0dad543df3f1ecdb8b'},
    'stats/bivariate-int': {'code': '0', 'stdout': '563cd7d0678aaec954d3f78b027a54565228e92190a70deb2145b7db06381609'},
    'stats/bivariate-mod:6': {'code': '0', 'stdout': '563cd7d0678aaec954d3f78b027a54565228e92190a70deb2145b7db06381609'},
    'stats/bivariate-rat': {'code': '0', 'stdout': '563cd7d0678aaec954d3f78b027a54565228e92190a70deb2145b7db06381609'},
    'stats/charzero-rat': {'code': '0', 'stdout': '26a24ed087d3683db357c0fdeccfbaf247b44b732e6e9611efa5fd6c35204f0b'},
    'stats/gradient-int': {'code': '0', 'stdout': '9d37f76a449e2f928d176e50de265e81bb887736278532ba1e3f4062c6c40537'},
    'stats/gradient-mod:6': {'code': '0', 'stdout': '9d37f76a449e2f928d176e50de265e81bb887736278532ba1e3f4062c6c40537'},
    'stats/gradient-rat': {'code': '0', 'stdout': '9d37f76a449e2f928d176e50de265e81bb887736278532ba1e3f4062c6c40537'},
    'verify-all/int-4-4': {'code': '0', 'stdout': '36758f552024a8ebf12bb86503a3949a2f60f37e03111ea2951e9a3d7d2259c2'},
    'verify-all/mod:4': {'code': '0', 'stdout': '85da7d000305b0b924355c58fe4bcd89f75f7e82344f9d35246a0112b7c31f24'},
    'verify-all/rat-4-4': {'code': '0', 'stdout': '840120eada7eb5db6ddb6c22fcedc1efc1e7af54535361b9ff07c91901cf18c0'},
    'verify-dump/adjugate': {'code': '0', 'stdout': 'dbd49b8e966773f36acbc62860a8a028d15331eee0857843f3d498da8a2d3549'},
    'verify-dump/bivariate_ch': {'code': '0', 'stdout': '668574e3fab31db333d3e9449ffa861fb0d564b0163780c7cd75abbccae0a51a'},
    'verify-dump/cayley_hamilton': {'code': '0', 'stdout': 'e4419c6dc4b84d271ac71917c5bd88bef7bec8a1768b4f1bda4b633204d1549e'},
    'verify-dump/cpc_recursion': {'code': '0', 'stdout': '0fe45ea89df7ed953eea27b7fd73bde1a70aa4b7f5d3b6e5e40535ba04a679cf'},
    'verify-dump/girard_newton': {'code': '0', 'stdout': 'f7b58065ab0ef26df25312fb94bcee4498e09c7e017407e94ca7f0189e9f95f2'},
    'verify-dump/rnd_block': {'code': '0', 'stdout': '4aaa8248d2c024c258c01ef769f37611b770966af60095543dc8676ff5663f5a'},
    'verify-dump/samuelson_entry': {'code': '0', 'stdout': '98233c65f33036a1010ba43e456bfd7019dfe3159d3d6c3bf3791181e11024e8'},
    'verify-dump/trace_ch': {'code': '0', 'stdout': 'b832d5c0f76635b64928df7f3a50a7acb405361bfa3669a7d5a421e0de9fa81b'},
    'verify-dump/transition_product': {'code': '0', 'stdout': 'e4ba0956208156e52ea7eebf9b3a038d5b5e8263e2aa53b9385f93bbb9afee13'},
    'verify-dump-rat/adjugate': {'code': '0', 'stdout': '1d60cf39f77e673907ac25bc5e6b0f56d2d7066c684139592bdb9b9510a40bbb'},
    'verify-dump-rat/bivariate_ch': {'code': '0', 'stdout': '53e512dd16a86b8dfa90c3ec01a387bd23bcde1337d93b81b3d2ac4619b76dfc'},
    'verify-dump-rat/cayley_hamilton': {'code': '0', 'stdout': '14d5188f659c8d884197cbaf836b036dc6dcc5308b4dec1aa3b247250c5767e3'},
    'verify-dump-rat/cpc_recursion': {'code': '0', 'stdout': 'f28a826b0375e4a0e4b503eaaa7c67ff87d37ee04ee21d1a7f265756baa3a469'},
    'verify-dump-rat/girard_newton': {'code': '0', 'stdout': 'ca82d70a905bc5e22b594f8dc8abf4f5b44426d6ee0af9f61497f98be396c2e5'},
    'verify-dump-rat/rnd_block': {'code': '0', 'stdout': '54aa9b08c3bf83c2d85a117457ccc3a8275325493eced16916a192109c0c7838'},
    'verify-dump-rat/samuelson_entry': {'code': '0', 'stdout': 'b1ce96b00aecc78a4f6bc1bc292cd804994b383b96c0d6175e092c25d6c71efa'},
    'verify-dump-rat/trace_ch': {'code': '0', 'stdout': '23a1c6aa697cd4c5f2b49c480254c3c0f6d1531dafe2e3850176fd0127d9b153'},
    'verify-dump-rat/transition_product': {'code': '0', 'stdout': '3a2e695901159270b32e678bce9394cfd4708655288bc620f834830e4e456864'},
}


EXPANSIONS = {
    "gradient-5-int": lambda: build_gradient_abp(5, 5, descriptor_from_spec("int"))[0],
    "bivariate-5-mod:4": lambda: build_bivariate_abp(5, 5, descriptor_from_spec("mod:4")),
    "charzero-4-rat": lambda: build_charzero_abp(4, 4, descriptor_from_spec("rat")),
}


def expansion_digest(name: str) -> str:
    """Digest of one ``name text`` line per output of ``expand_all``."""
    polys = expand_all(EXPANSIONS[name]())
    return _sha("\n".join(f"{k} {p.text()}" for k, p in sorted(polys.items())).encode("utf-8"))


GOLDEN_EXPANSIONS = {
    'bivariate-5-mod:4': '264168503e5485284969d460637c594356f6d01828062acf17c556d1bb30bf59',
    'charzero-4-rat': '4fcb6dedeb2bf0d58e2d141ad2c127634eaa07d35a2ccf98a22a7b7d491133f0',
    'gradient-5-int': 'a021d79d6df5f6e2d7b0e930b55ad929e4d95e188b3fe1c478f805309ec47080',
}


def gradient_grid_digest() -> str:
    """One digest over the sorted JSON, the DOT text and the statistics'
    repr of every gradient program with 1 <= d <= n <= 8 over int, mod:6
    and rat."""
    h = hashlib.sha256()
    for spec in ("int", "mod:6", "rat"):
        ring = descriptor_from_spec(spec)
        for n in range(1, 9):
            for d in range(1, n + 1):
                g, stats = build_gradient_abp(n, d, ring)
                h.update(json.dumps(graph_to_json_dict(g), sort_keys=True).encode("utf-8"))
                h.update(graph_to_dot(g).encode("utf-8"))
                h.update(repr(stats).encode("utf-8"))
    return h.hexdigest()


GOLDEN_GRADIENT_GRID = 'e21f9fee3ea67e4e753bdc7cb3974a026ede26ec5ec295ad1e1b49ca50afd71a'


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name):
    assert digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(EXPANSIONS))
def test_golden_expansion_text(name):
    assert expansion_digest(name) == GOLDEN_EXPANSIONS[name]


def test_golden_gradient_grid():
    assert gradient_grid_digest() == GOLDEN_GRADIENT_GRID


if __name__ == "__main__":
    sys.stdout.write("GOLDEN = {\n")
    for case in sorted(CASES):
        sys.stdout.write(f"    {case!r}: {digests(case)!r},\n")
    sys.stdout.write("}\n\nGOLDEN_EXPANSIONS = {\n")
    for name in sorted(EXPANSIONS):
        sys.stdout.write(f"    {name!r}: {expansion_digest(name)!r},\n")
    sys.stdout.write("}\n\n")
    sys.stdout.write(f"GOLDEN_GRADIENT_GRID = {gradient_grid_digest()!r}\n")
