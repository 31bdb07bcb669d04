"""Golden outputs: refactors of the engine must leave every frozen output byte for byte.

The hashes and the files under tests/golden/ were recorded from the command
line before the elimination code was unified; the genmat json hashes were
recorded before the generator was rebuilt from the pivot expansion, and
distance-q3.json before the search walked its supports depth first;
weight-dist-q2.csv before the scan weighed its blocks by a byte sum; the
two-digit genmat hashes (q = 11, 16, 25) before genmat wrote its rows from a
byte table; the larger fields and non-default polynomials of
GENMAT_WIDE_SHA256 before the generator was evaluated on open parameter
grids; the points txt hashes and POINTS_WIDE_SHA256 before points was written
from reused record buffers (the points json hashes for q <= 9 are older still).
``witness_coeffs`` in every distance output (q = 2..5) is
``min_weight_witness``, so none depends on the pivot rule of the row
reduction.  The ``evaluations`` of distance-q3.json and distance-q4.json,
and the distance line of verify-q2-budget1000.txt, were re-recorded when the
family split replaced the information-set search (distance-q5.json dates
from then); the ``evaluations`` and ``witness_coeffs`` of distance-q2.json
when the split became the one exact path at every q, and the ``evaluations``
of distance-q2.json and distance-q4.json again when the split came to scan
one projection per side (2 * q^10 at every q).  weight-dist-q3.csv,
weight-dist-q4.csv and weight-dist-q5.csv were recorded from the split's
weight distribution; q = 3 equals the scan of all 3^20 words of the whole
code, which CI runs.  verify-q8.txt was recorded from the command line
before the process entry moved to ``ograss.__main__``.  Every other byte of
them is older.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from ograss import codes
from ograss.cli import main as cli_main
from ograss.gf import field

GOLDEN = Path(__file__).parent / "golden"

POINTS_SHA256 = {
    2: "fd8ff9f8668ad285c179e9eae15339df7838ebc7b5d8b0cb16e855ec547cec78",
    3: "2e9f8c39f287e4652c2a81f98a8838fadc8cad7f4e719d4534141f4898e54486",
    4: "e21ee5ccd4893568d03407dae5b687faa530c8baab04816d41ff08aa830e292b",
    5: "c1c00723c1af6cbdb5ad355e6541ae7cea979ed642ecaf02ab2713c339aa6714",
    7: "6a7d6d9900282908e9861eb94c84f84c06f4f436b61f6e18f61a48654481ec5a",
    8: "42b2362b9277e1c37839f141d71169d856bdc002d08f0ae0c062f0416b6eb6d1",
    9: "f8c177f7d798256e2fbea5c7d7868f334406ba982fd44a829d2e1752db0fb02f",
}

POINTS_TXT_SHA256 = {
    2: "133be380c2a8040d42fd9a9c7cc95e096179b29a441ad6983d46f82fb19620e3",
    3: "aa6f22fd29e95035f15f5e3e4b3ba245cf9b82154923c4da8ae3663db73540fa",
    4: "e111a757cb3a73d79eeaf0e427bc33690adbc89facfc65aa88e051c99df400af",
    5: "ef0cfee749d4e13e1b105f6951dfd7998a3af5460d2c0336ca511b8956f85a56",
    7: "13449734c13530865793abe1eb953df281a41f81026ba37705eab160283e86d8",
    8: "25284242ed6e9803f91b9f40beed0aa3aa01e98984bb775e4e19ba1a76b19aa4",
    9: "6c828a6eb0502d6b9dacf8f9edb92cfdeb601792fe810a696a6747ee61d2d3b3",
}

#: (txt, json) by points arguments: two-digit entries and two defining polynomials other than the default
POINTS_WIDE_SHA256 = {
    "--q 11": ("9c297841f21955a50cd099ce4979e732de516d32ebfbdbf674d23b303cb3567a",
               "98d950c7847249b7960d2a2cd66a8bb28c9fa2c3581fcf0b9e23ae6f9f5dd11d"),
    "--q 16": ("2147167d037072d667a7af7c0fcd3074b629d0ab87de58b9821de8046f91970e",
               "a3274baa42a4b73640f1c16f20b65125da5aadcc77cfa0f627b4ea732aab8041"),
    "--q 25": ("dc9d145db5798a1bd462b5f63a5fb20e951748c66e58b46fd523970f57f8c448",
               "a5ec53b327c6718b0134c730f617a0e1fe6d18578b3fa0a21d33e97053cd5db1"),
    "--q 27": ("b06e93b02125520457f151d2b1f0c59e9ab6f4db29f9ad6eb2dcb25c5a456ddc",
               "c135709ab7af10b44cb624d3a50ba61683227c596342ff73f395fcb47756bf28"),
    "--q 49": ("5edc9a3b29f7b51215e25d5538d2947e33402f5210864a3d80faebd2dbf8df37",
               "56fa3d7d6d7c05a42e2878f5f9fdeda6611b9453ce2d04d6d109a1ab703419ec"),
    "--q 9 --poly 2,1,1": ("6c828a6eb0502d6b9dacf8f9edb92cfdeb601792fe810a696a6747ee61d2d3b3",
                           "f8c177f7d798256e2fbea5c7d7868f334406ba982fd44a829d2e1752db0fb02f"),
    "--q 49 --poly 3,2,1": ("5edc9a3b29f7b51215e25d5538d2947e33402f5210864a3d80faebd2dbf8df37",
                            "56fa3d7d6d7c05a42e2878f5f9fdeda6611b9453ce2d04d6d109a1ab703419ec"),
}

GENMAT_SHA256 = {
    2: "7a891e6ed0a10c46049adfd62c88b2357b22ef87024e6234d702b8247730a329",
    3: "928a52578b2f56fe3c36681805cacceac977d8c19eb6967452162ca7f58f615a",
    4: "debd9f06ccbddc7acd99bd2cc22efd53f66fca69f0fb34e6f93f78d7e2526a3b",
    5: "531ce28d90dce5bfe42eec208962b2e88e187765b9a670a7a3ce97182d41df9e",
    7: "619d8827ff95abb9d96a9cef55f48d8f7a344643c0f6adc3da4daf3c5330ed6c",
    8: "6d8ec4d3354377c6959450786299110a63d90faa45033136ceef5d0e9ecbb636",
    9: "9012f691f96ca1f3381e483ddd0eb758bf033ced2c46f281f379aba3a1b2aa0f",
}

GENMAT_JSON_SHA256 = {
    2: "35db5166943a1fdd29de9a91c4db665ebc15ab2048ca1a000b7a8966ec81adca",
    3: "4f679652adde9a788983f5862b8ef19b63bde932d4b7bec312df2dc5e54d98ff",
    4: "1d146cfb3a938c5b9a7afa01541e569a53d492e049b4e9f45745d3c009846301",
    5: "b942b1e036699cfeb5dc3b4d6cbce9e06e926c688da7ae8decb85aeb8469b340",
    7: "56a0705430bc99a3ca7c52397af01c13a41ea29e6fe0e95c2adbfc7275adf052",
    8: "0c05e6515747813e8bb8e2e16d0cde2e75cca828d593a22ef1155b40847b2e0f",
    9: "fe3080ec1abe0f31247ea69a771010bb61302d15fd25292670047be924a82897",
}

#: (txt, json) for fields whose entries run to two digits
GENMAT_TWO_DIGIT_SHA256 = {
    11: ("98382ead2772947224c610a28b2882df18e9560d48a0654cfff053c82e125c93",
         "cd6996e96d58069073370bf450e828ae0be58e60fe39b457b301997b7801f757"),
    16: ("3b09d2a0a73c4c460a87259f9f74d119af430a2731ae83ad5e7d19e32908167c",
         "3e96fd0c44b43a76f1b1aa15079f92652f2e6f4eb8e47a794a2ea024ee9264bf"),
    25: ("ab531d21b404256a038548bf2123ffb8d19ad7286ac07558c8b3dce6d41341b3",
         "c1e7afb5318570ae558caa4ff953e18e65ea795ac7024c406d8e28f4a1915321"),
}

#: (txt, json) by genmat arguments: fields past q = 25 and two defining polynomials other than the default
GENMAT_WIDE_SHA256 = {
    "--q 27": ("1de341f35f1057d1508f9614260137f6c1f96ba897fcbf260258699aa23dc48d",
               "95e054fd2203d16c36051b8644c7e3022f1260de6f9d2f454f4bd6c432ea4577"),
    "--q 32": ("006530a0169260c4693b5d1808c51eb602dcff4525d26ea9219855d2912ae695",
               "05af9200aff5543ed39059fe35a89fe54b3ad3cfaa5d56f73e8f7fec6d141cbd"),
    "--q 49": ("79d989962588dba6ff88dca299baf508edcafc3a1f27bf7de9b6f51bbc534c40",
               "a7261c0de868b6d82318025d32fd1d4687b225709cd80c42b5f96b6f260dae1e"),
    "--q 9 --poly 2,1,1": ("da941ea3d1aa4252459595ba5d85ef1956bea847360ef866d4ecc71cc7ecfc2e",
                           "3fe8438da48a83ba85155f589116890a208d184aa0840c98c291bd60f9b25672"),
    "--q 49 --poly 3,2,1": ("c85030fcbcb0977a78677d91358d6eb2ff372859cc151cada7bd0e97d8248506",
                            "53b98a40c63fb81d3dc3048beec134c9c91dd423e1ad1766a9e7365ae75a48e1"),
}


def _stdout(capsys, argv):
    assert cli_main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("q", sorted(POINTS_SHA256))
def test_points_json_hash(capsys, q):
    out = _stdout(capsys, ["points", "--q", str(q), "--format", "json"])
    assert hashlib.sha256(out.encode()).hexdigest() == POINTS_SHA256[q]


@pytest.mark.parametrize("q", sorted(POINTS_TXT_SHA256))
def test_points_txt_hash(capsys, q):
    out = _stdout(capsys, ["points", "--q", str(q), "--format", "txt"])
    assert hashlib.sha256(out.encode()).hexdigest() == POINTS_TXT_SHA256[q]


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("args", sorted(POINTS_WIDE_SHA256))
def test_points_wide_hash(tmp_path, capsys, args, fmt):
    """Written to a file, hashed and deleted: the q = 49 json is about 100 MB."""
    out = tmp_path / "points"
    assert cli_main(["points", *args.split(), "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    assert digest == POINTS_WIDE_SHA256[args][fmt == "json"]


@pytest.mark.parametrize("q", sorted(GENMAT_SHA256))
def test_genmat_txt_hash(capsys, q):
    out = _stdout(capsys, ["genmat", "--q", str(q), "--format", "txt"])
    assert hashlib.sha256(out.encode()).hexdigest() == GENMAT_SHA256[q]


@pytest.mark.parametrize("q", sorted(GENMAT_JSON_SHA256))
def test_genmat_json_hash(capsys, q):
    out = _stdout(capsys, ["genmat", "--q", str(q), "--format", "json"])
    assert hashlib.sha256(out.encode()).hexdigest() == GENMAT_JSON_SHA256[q]


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("q", sorted(GENMAT_TWO_DIGIT_SHA256))
def test_genmat_two_digit_hash(capsys, q, fmt):
    """Entries of one and two digits in one row, so the byte table's zero pad is live.

    Recorded from the command line while genmat still formatted each entry
    with str() and the JSON with json.dumps, before it wrote rows from a
    byte table.
    """
    out = _stdout(capsys, ["genmat", "--q", str(q), "--format", fmt])
    expected = GENMAT_TWO_DIGIT_SHA256[q][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("args", sorted(GENMAT_WIDE_SHA256))
def test_genmat_wide_hash(capsys, args, fmt):
    out = _stdout(capsys, ["genmat", *args.split(), "--format", fmt])
    expected = GENMAT_WIDE_SHA256[args][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_distance_stdout(capsys, q):
    out = _stdout(capsys, ["distance", "--q", str(q)])
    assert out == (GOLDEN / f"distance-q{q}.json").read_text()


def test_distance_parts_stay_off_stdout(monkeypatch, capsys):
    """The per-part record adds up to the reported evaluations and changes no output."""
    results = []
    inner = codes.minimum_distance

    def recording(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(codes, "minimum_distance", recording)
    out = _stdout(capsys, ["distance", "--q", "4"])
    assert out == (GOLDEN / "distance-q4.json").read_text()
    (res,) = results
    assert [p.name for p in res.parts] == ["CA", "CB"]
    assert sum(p.evaluations for p in res.parts) == res.evaluations == json.loads(out)["evaluations"]
    assert all(p.seconds >= 0 for p in res.parts)


def _pool_every_scan(monkeypatch):
    """Make the process see two CPUs, and every scan go to a pool of two threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(codes, "_POOL_BLOCKS", 1)


@pytest.mark.parametrize("q", [4, 5])
def test_distance_stdout_with_threads(monkeypatch, capsys, q):
    """q = 4 and 5 run the family split, whose sides take several blocks;
    with every scan in a pool of two workers, stdout is the golden one."""
    _pool_every_scan(monkeypatch)
    out = _stdout(capsys, ["distance", "--q", str(q)])
    assert out == (GOLDEN / f"distance-q{q}.json").read_text()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_verify_stdout(capsys, q):
    out = _stdout(capsys, ["verify", "--q", str(q), "--budget", "1000"])
    assert out == (GOLDEN / f"verify-q{q}-budget1000.txt").read_text()


def test_verify_stdout_q8(capsys):
    """verify --q 8 under the default budget, which refuses the split, so the
    distance line is the witness's upper bound; CI compares the installed
    script and python -m with it."""
    assert _stdout(capsys, ["verify", "--q", "8"]) == (GOLDEN / "verify-q8.txt").read_text()


def test_weight_dist_stdout(capsys):
    out = _stdout(capsys, ["weight-dist", "--q", "2"])
    assert out == (GOLDEN / "weight-dist-q2.csv").read_text()


@pytest.mark.parametrize("q", [3, 4, 5])
def test_weight_dist_stdout_beyond_q2(capsys, q):
    """Under the default budget; every total is q^k and A_d is as recorded."""
    out = _stdout(capsys, ["weight-dist", "--q", str(q)])
    assert out == (GOLDEN / f"weight-dist-q{q}.csv").read_text()
    counts = dict(map(int, line.split(",")) for line in out.splitlines()[1:])
    d = q**3 - q**2 if q % 2 else q**3
    assert (sum(counts.values()), min(w for w in counts if w), counts[d]) == (
        q ** (20 if q % 2 else 14), d, {3: 3120, 4: 510, 5: 96720}[q])


def test_weight_distribution_threads_match_golden(monkeypatch):
    rows = (GOLDEN / "weight-dist-q2.csv").read_text().splitlines()[1:]
    golden = {int(w): int(c) for w, c in (row.split(",") for row in rows)}
    _pool_every_scan(monkeypatch)
    assert codes.weight_distribution(field(2)) == golden
