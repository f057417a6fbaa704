"""Byte-identity guard: CLI reports must not change under refactoring.

Each case runs ``kmlift.cli.main`` in-process and compares the sha256 of the
report's ``.json`` and ``.txt``.  Manifests are not compared: they hold wall
times and the config echo.  The digests were taken before the arithmetic
helpers were folded into one home each; a digest is only edited when a
report is meant to change.
"""

import hashlib

import pytest

from kmlift.cli import main

CASES = [
    ("charsum-prop5.10", ["charsum", "--identity", "prop5.10"],
     "a41ca1d00e61ea701f5122276e5ff90a426aa6262c6b645963c766056af819d3",
     "e8fe1b1f889f76391efdfc75f4a4fc2c5f82b84624579e0646072a640cdaa10d"),
    ("charsum-lemma5.1",
     ["charsum", "--identity", "lemma5.1", "--primes", "3", "--m", "2",
      "--pairs", "20"],
     "630cb4802e01b670651b76f1f7696a25ebf0704a0637055e16dcaf64f668989a",
     "e2bb78d2a5e002f968875bd59ea9b11cd85736a483a32114637e61b16ebd904e"),
    ("charsum-prop5.4",
     ["charsum", "--identity", "prop5.4", "--primes", "5", "7"],
     "a645402eaeba6f02c1b4f6131fb59e333403b936c0a732445c88f779c6c5433a",
     "9fc69585053f49f5261430939499bf740c851e72905eaac8b2e3ed0a1cf4607f"),
    ("charsum-lemma5.3",
     ["charsum", "--identity", "lemma5.3", "--primes", "5", "7"],
     "77f17ecf30069d01c234f3caac3f57fa11d3a41c066bcda1935e7a9c526ac60f",
     "fe40de15943f641c3f7ded3f75289b2f4422a4c7d1f5d122f60b812af080f08b"),
    ("charsum-prop5.2", ["charsum", "--identity", "prop5.2"],
     "1d34c59643a80dc5886074527aebdb15e179d8d17b41093bb85e0961f4a0fd04",
     "27216b0c3d4c437759c8ce376024d75242f5e715847f3811b3065036e28135b1"),
    ("charsum-prop5.7", ["charsum", "--identity", "prop5.7"],
     "b322fe17e6188e9df255b695cc36fedb843535b5ac6d6c7b07e12babad1b1c30",
     "3dc1dbbc94224d4809346cf1f4906c1d91e12fb451d683e0ca3982ec1d88b319"),
    ("charsum-thm5.5", ["charsum", "--identity", "thm5.5"],
     "c56764baf9071f15776a272d08bd6ee741421000ceec511996a169877102bd2f",
     "d3ba47927e3e26d7932a10c43aa7135ecb5e5b571992fe787a70b0fe51632511"),
    ("jacobi", ["jacobi", "--chi", "7:1", "--m", "3"],
     "537a249e743a80f6998b9ef0cb4caf40e8306ae6282d879eda1efb4c143a95f8",
     "22d055de14c9c49b9bd57f06716cc306b7f7e7dc1e29623f24b4e6709190817f"),
    ("jacobi", ["jacobi", "--chi", "7:1", "--m", "3", "--mode", "brute"],
     "df19e3959583e18e85ca94b9485c3b93d47578b8e4b8fdab48ff159b5d026b03",
     "cc155a7abef10771b9ff08993adabd589864b08117713561c0541670c942415a"),
    ("jacobi", ["jacobi", "--chi", "35:1,1", "--m", "2", "--mode", "brute"],
     "b4a4c939d816f7ed91e9f17017f5e6427875be9f0fd9665ab2c5b787540297dc",
     "5d852ffa5b9d55574694fa39401d4bdebcc66a41be350119b16a030a7dea975f"),
    ("local-density", ["local", "density", "--p", "2", "--mode", "closed"],
     "427a6ab63c624506257602686f797c5e90caead77eca90f7f2de0c104ae4024c",
     "80cbb596ad72d8a29ee0d056c81deb043004347f0b38c50c3cc54894f99b48a5"),
    ("local-density", ["local", "density", "--p", "3", "--mode", "brute"],
     "3a0d15bcc707d9c01ecff129902f47381b5251d383c07372fa54fd42e69ccf81",
     "8382807fe92b2cb53155eec616bd082ea281f8a8ba18776685aa220bd7ea7c03"),
    ("local-siegel", ["local", "siegel", "--p", "3", "--mode", "stratified"],
     "449e88dbd2bd2b2ed95a224cd1f8d202024f00925f834956a41566efe52d4702",
     "37a25ed03cdda0712c21d2c83c3a47e8912bc4a3e709cc16046ac442820f104b"),
    ("local-siegel", ["local", "siegel", "--p", "3", "--mode", "oracle"],
     "449e88dbd2bd2b2ed95a224cd1f8d202024f00925f834956a41566efe52d4702",
     "37a25ed03cdda0712c21d2c83c3a47e8912bc4a3e709cc16046ac442820f104b"),
    ("local-pseries",
     ["local", "pseries", "--n", "2", "--p", "3", "--prec", "4"],
     "3514bc4ce1b9b51557aaf6e58246fcf3b95ef6498b96b3aa6bc4ab016cea4db7",
     "6b5074c4ecf7087a389ca7a381cd4e714ef6bcca91c7399d59a27a9721702e55"),
    ("lseries-cohen", ["lseries", "cohen"],
     "dbe2f1a03bcb8f6327e8ed4cba4ecb880e66a1d226b7c159bfe06904f6e88e94",
     "1097fc7dea9f6095aed78ddf7889a11229b4d08f21d3acd05b9417602b4b0483"),
    ("lseries-stream",
     ["lseries", "stream", "--chi", "5:1", "--bound", "20"],
     "737f0a62c3d737ab343b95ebe21cf413b09c5ba2de9237347d3020d289073754",
     "2a60732674f6b742ec3f478bb101b0a1a7a68412e935b12234c0988200d903a6"),
    ("lift-coeffs", ["lift", "coeffs", "--det-bound", "16"],
     "c9c8b77249165488eec9c24263377a7088a92ad1778092a1c395898b67fbb70f",
     "6d360c53f2de9dba9397f46feaa6a5682c2d90e73b1d2eb05140f78d4d899b89"),
    ("kmverify", ["kmverify", "--det-bound", "16"],
     "7674dd7784444d5c6728509aa5057e66807a52850920abcf3f8992ffad5178d7",
     "885cca133920c88b2d0073186ba6de50f5508adebb4009627f81d5fcb5c718ae"),
    ("firstkind",
     ["firstkind", "--n", "4", "--k", "8", "--chi", "7:2", "--det-bound", "16",
      "--with-thm41"],
     "7d179f5e932b842247ebd7241d6c1c2184a32efab4eeae50074201d5aa7d4077",
     "2011d66b2a4b95ae3499ebf126e0f10488ae9207bdf44659f9a782c4da7843e4"),
    # k = 10: S(h) = Delta E_4; the same digest as at k = 8, since the
    # fitted constants do not depend on k and the report omits the det bound
    ("kmverify",
     ["kmverify", "--n", "4", "--k", "10", "--chi", "5:1", "--det-bound", "40"],
     "67b4696352c5c153b8c5a860bceabd55ceac0761e95a8329233bfc50ce8de58d",
     "d824773a394c66323ea82aacb2d1bc6c41f2bf6eb47fbd5b09e78399dcaf0fdd"),
    ("firstkind",
     ["firstkind", "--n", "4", "--k", "10", "--chi", "7:2", "--det-bound", "40",
      "--with-thm41"],
     "7d179f5e932b842247ebd7241d6c1c2184a32efab4eeae50074201d5aa7d4077",
     "2011d66b2a4b95ae3499ebf126e0f10488ae9207bdf44659f9a782c4da7843e4"),
]


@pytest.mark.parametrize("name,argv,json_sha,txt_sha", CASES,
                         ids=[" ".join(c[1]) for c in CASES])
def test_golden_report(tmp_path, name, argv, json_sha, txt_sha):
    assert main(["--out", str(tmp_path)] + argv) == 0
    for ext, want in ((".json", json_sha), (".txt", txt_sha)):
        got = hashlib.sha256((tmp_path / (name + ext)).read_bytes()).hexdigest()
        assert got == want, f"{name}{ext} changed"
