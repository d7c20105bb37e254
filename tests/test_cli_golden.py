"""Golden CLI outputs: sha256 of stdout and the exit code for a fixed command list.

The digests pin exact outputs only (closed forms, derivative polynomials,
ladder identities, an exact verify suite and error exits), so they hold on
any platform; outputs that carry floats are left out because libm may differ.
Commands run in-process through ``main()``.
"""

import hashlib

import pytest

from negpolylog.cli import main

GOLDEN = [
    ("li 12 --format text", 0,
     "763268f6ffe9e14b1212afd3b2775051554d54cb10b0b77714b80150e01c43aa"),
    ("li 12 --format latex", 0,
     "860971fd80e7a54ba347c0bb518a73918fe5eac6b48c82104f1c8f926e1b26ee"),
    ("li 12 --format json", 0,
     "c804403f5a4189cdb986135990f9a4cb27319a8996548f44bd3ccac9027dddea"),
    ("chi 12 --format text", 0,
     "7b8d7256f5b36279c01e555cfeb75e97b55c18986c4bb269d4ee6237f5f0b367"),
    ("chi 12 --format latex", 0,
     "32a0f26aa30e35efce75f807b155e2c9282a5dac310f1d0deb8925c902dd81c3"),
    ("chi 12 --format json", 0,
     "cf5349e6691f7e26771ed70bfcaee8ec7733bfe7c1846322c0684d6ca92d313c"),
    ("ti 12 --format text", 0,
     "87066f6834729c3d6dac0d0407f0bb245b3e10ba8474e50818159c14b236ff2b"),
    ("ti 12 --format latex", 0,
     "71fc4b6201bc094235889fbe4a8518484146131c1bfd5df7b800a7e418639405"),
    ("ti 12 --format json", 0,
     "af07515ff572eb2237ecd231bdc141651ff9837330fdf3f0bdeb1a327d3cbd81"),
    ("cot-poly 9 --format text", 0,
     "f3bee19f70c0418303da96ac02038716d332ffea1fccf7a9ac1756d5cc4decbe"),
    ("cot-poly 9 --format latex", 0,
     "1c67831e56c002161cb4b19687a18d6981e8ee2c219d69406c44b07d16c8f2cb"),
    ("cot-poly 9 --format json", 0,
     "e805597f9360c9b28fee2c481802aa5da2f260345a23ce32ddf11e3965f7b22b"),
    ("tan-poly 9 --format text", 0,
     "ad6e6dddf49146f93c67376876dc0cabc307518618137cdd632b1ae52d9bebd0"),
    ("tan-poly 9 --format latex", 0,
     "1ab2ff43a2cd66888d8ccab939c4b770eb6d7714cf1f1a66ca1d47b791a349a4"),
    ("tan-poly 9 --format json", 0,
     "c347be661a627b6784677f046855fe087ceb05bde6c5b10f4cbe5c0a431b7334"),
    ("coth-poly 9 --format text", 0,
     "cadc63276a9cd6521b1e316ee33c39febbf79a21643ebc701aa86e1c7ad0435c"),
    ("coth-poly 9 --format latex", 0,
     "c14dd8ded38e1899fc1e88e0fb6da3f4569588ee90884fbdf4c7a1d6dba03458"),
    ("coth-poly 9 --format json", 0,
     "b1d1749c6980ac4daa224fad1e50e31e30b4efc62f968c563f2a8e7f6f68bdf4"),
    ("tanh-poly 9 --format text", 0,
     "cadc63276a9cd6521b1e316ee33c39febbf79a21643ebc701aa86e1c7ad0435c"),
    ("tanh-poly 9 --format latex", 0,
     "c14dd8ded38e1899fc1e88e0fb6da3f4569588ee90884fbdf4c7a1d6dba03458"),
    ("tanh-poly 9 --format json", 0,
     "5132ede57689eed8ae515b2163e45958d3b661d87071fa67b467e727889a6972"),
    ("ladder --n 7 --arrangement standard --format text", 0,
     "efce01ab77a1505c3f2f35af889330e402ccc936e86956ab34c6fdd856223717"),
    ("ladder --n 7 --arrangement standard --format latex", 0,
     "76b4b16e4a77876d679dd5a9f0101c6bbeeae78c875679ead7d09fafd4f38c61"),
    ("ladder --n 7 --arrangement standard --format json", 0,
     "821c3e6dcd15397f5d680d7eed5cccf46ee9f3de4ff9074f4c8b5dc1d98167d0"),
    ("ladder --n 7 --arrangement halved --format text", 0,
     "ab6da803f82ed478f86beac5bba6ad0c3dbe764e7596ee272fde3b01f8995f0d"),
    ("ladder --n 7 --arrangement halved --format latex", 0,
     "ae08c1bfc64ee6bce609e7856a5a91ee57c9565f28e7a44a9aa06264bd206656"),
    ("ladder --n 7 --arrangement halved --format json", 0,
     "a0a2619f1a4063cd637cab335793c8ed1053f557bdd1ea7ce9d25eabcd57330d"),
    ("verify ladder --n-max 12", 0,
     "081c877e4f782fa3a08d73b85ae6279775cbee2f33113fa85f31caa205637855"),
    ("eval li 0 1", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("li 65", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify trig --n-max 11", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_cli_output_digest(capsys, command, code, digest):
    assert main(command.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
