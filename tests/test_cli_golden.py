"""Byte-identity guard for CLI output.

Each case pins the exit code and the sha256 of stdout for one command.  The
set covers characteristic-p rendering, divided-power primitivity, the
floor-0 vector, the first-floor vectors at (3,2) and (2,3) and the verify
suites that the benchmark's query pool leaves out.  A change that
moves one of these hashes changes the JSON that users diff across runs.
"""

import hashlib

import pytest

from superinduce.cli import main

WALL = [
    ([*command, "--lambda", weight, "--i", "1", "--j", "1", "--p", p], 0, digest)
    for command, weight, p, digest in [
        (["primitive"], "[2,1,0|2,1]", "3",
         "ad2b8829ff1f6b4c69181557f4fa08028a1bc486b1adc54dd09c8e19efe04284"),
        (["emit", "pi-ij"], "[2,1,0|2,1]", "3",
         "35691f85ea804dbddd1b484e769f54a1b2a06baa29ff2abc1b049e8bfe99f0a2"),
        (["primitive"], "[2,1|2,1,0]", "3",
         "36987ed43615cf207100eea82bde59149cb0a019cf386a1364c9e5a47422eba0"),
        (["emit", "pi-ij"], "[2,1|2,1,0]", "3",
         "cd6433207fc5e66d45e145d64dfc0bf9425475c16953d9180c40a2988dcd1408"),
        (["primitive"], "[2,1,0|2,1]", "5",
         "e3e967c5c76bc6b7e3d1c6d8292e32e35461e938f0f8be2063ff40bbfa273033"),
        (["emit", "pi-ij"], "[2,1,0|2,1]", "5",
         "1febf064eafc8acc451f525c972adb0636b7c68986e9ec7abee264a620eab023"),
        (["primitive"], "[2,1|2,1,0]", "5",
         "13f5ee89d7363b2c405e15551495a97061fbd4ea2b7d2536aef322ab4c404ca7"),
        (["emit", "pi-ij"], "[2,1|2,1,0]", "5",
         "eda5d82e47544b730c4a6153d2d73b4a82d3ac16f949a2947b4b31cd0203ce9e"),
    ]
]

GOLDEN = [
    (["emit", "highest-vector", "--lambda", "[2,1|1,0]"], 0,
     "dfb0ec2ec6c5ae01ace6b9866f0243221ca42b47cdb70a695ad7ed0259b9f485"),
    (["emit", "highest-vector", "--lambda", "[2,1|1,0]", "--p", "3"], 0,
     "d7ec3c86f778a4e4319b1494eab04eb4eed2cafdd663bde1e2334e4772ff9fbd"),
    (["emit", "pi-ij", "--lambda", "[2,1|1,0]", "--i", "1", "--j", "1", "--p", "5"], 0,
     "732180ee37b6a69dd21f315d5420d8633b771e989f5e84f5c82a904c686e203b"),
    (["emit", "pi-ij", "--lambda", "[2,1|1,0]", "--i", "2", "--j", "1"], 0,
     "a3fb9f93f97abfa0c3666571404c379c9dba8c558e6ed6802f6d1e7e9560270a"),
    (["emit", "pi-IJ", "--lambda", "[4,3|1,0]", "--pairs", "[[1,1],[2,2]]"], 0,
     "e601437a1ba4d1bce536358a32abc8edde3d5e2336a1f780dca8f40b84b8df37"),
    (["emit", "pi-IJ", "--lambda", "[3,3|1,0]", "--pairs", "[[1,1],[2,2]]", "--p", "3"], 0,
     "1fbed8bd39e4a4c741eeb0cec34539231b7d03dfffb14b5a480b8ffbe33cc108"),
    (["primitive", "--lambda", "[2,1|1,0]", "--i", "1", "--j", "1", "--p", "3"], 0,
     "70196a8bb6d80fdc33ddf5f7e681310209a2c2c51d3c8f23f2202c10d5e1b4dd"),
    (["primitive-k", "--lambda", "[4,3|1,0]", "--pairs", "[[1,1],[2,2]]", "--p", "3"], 0,
     "bac86da858bd0fefc2915b59bbc2930a4c31336f49d99d9cb4a722379e7531b4"),
    (["phi1", "--lambda", "[2,1|1,0]", "--p", "3"], 0,
     "80add2ba678a8a1dddd57bb37111cf89bba9688a9a8df330f9ef1afd2d07b459"),
    (["verify", "lemmas", "--m", "1", "--n", "1", "--p", "3"], 0,
     "c1c6b88ad21e78d06eaba0384aba5bfdf0477f8878f52a18c027369b80edcac7"),
    (["verify", "identities", "--m", "2", "--p", "5"], 0,
     "e9cbd7a6fc070b59113ac7250c0265b35a0d1ecdb178ce30fc7fd38330861010"),
    (["verify", "gen", "--count", "2", "--seed", "5"], 0,
     "d902252fbd9e3b97b9686ac34f679bdf3ed129730ec35aef78c1b70e69f4843b"),
    (["emit", "omega-grid", "--lambda", "[2,1|1,0]"], 0,
     "5c99169eee97eee1ebafc50e5b76f0bb75612f26576dbef2d9030a4feec87c3e"),
    (["emit", "linkage-graph", "--p", "3", "--max-entry", "2"], 0,
     "166bf37a7c51bb3e732be97aa244e996349b32609040e7f527b57adf00a38c1e"),
    (["verify", "phi1", "--count", "2", "--seed", "4"], 0,
     "a2e2870ac5f1cfedcfc2f0f184e1628df6afe97567c70a138d4e2641dea717c3"),
    (["verify", "identities", "--count", "6", "--seed", "2"], 0,
     "8560488b7a0cebc05e3c08baa6772a3a3562e6aab3b6f5a65c192fa3d2be8d8c"),
    (["verify", "lemmas", "--m", "2", "--n", "1"], 0,
     "96c808ea183ce225e14a91cb3c2d04299c565a1ae31318876b7cdba58290df1f"),
    (["emit", "highest-vector", "--lambda", "[1,-2|0,0]"], 0,
     "3210fdc54c25b2d3d57ef448a67181a2ca52b74c621095e8ed13f86300dea1bf"),
    (["emit", "highest-vector", "--lambda", "[3,2,1|1]", "--p", "5"], 0,
     "8a695dc3d5e5843cd948113193eb55e79698092b2c87ab9583f2cc71c1e47b6e"),
    (["emit", "highest-vector", "--lambda", "[2|2,1,0]"], 0,
     "5a15a0b3a92f724547c374f382b5cf5fe45ac13367badc52820ac71793198f76"),
    (["primitive-k", "--lambda", "[3,3|1,0]", "--pairs", "[[1,1],[2,2]]"], 0,
     "394d8a6039338baad5f5d026fae7a376822a6a4b3e7d3a2760c8fe1a6f69a191"),
    (["verify", "fwedge", "--m", "3", "--n", "2", "--max-entry", "3"], 0,
     "1081e82c26516fd5f4515533f96f42b9dd349add019584f0ecb8da480fb60826"),
    (["verify", "fwedge", "--m", "1", "--n", "3", "--max-entry", "4"], 0,
     "d3927d3201fd6ebac794ff5c8409f823ae2b1e3df508bb29f362b10afab89a68"),
    (["verify", "linkage", "--m", "3", "--n", "2", "--p", "5", "--count", "10"], 0,
     "caa119d13209c0a1c589c4315242b00431f8407a1a70ca9884fd4599569a5c32"),
    # the largest sweeps of the benchmark's query pool
    (["verify", "fwedge", "--m", "3", "--n", "2", "--max-entry", "6"], 0,
     "c322723f42b5bb97600b30936c45ad9dacead05853cba80a09fe20e3a95f8906"),
    (["verify", "fwedge", "--m", "2", "--n", "2", "--max-entry", "6"], 0,
     "c0794a9a58f05f595abd3d127240481b6baf389827e5ca6737ed0b7f8230a3a2"),
    (["verify", "linkage", "--m", "3", "--n", "3", "--p", "3"], 0,
     "55806d3c38277c5952f1e10acc78bdf6c5476a76307bb3568e646869c7fac2eb"),
    (["verify", "linkage", "--m", "2", "--n", "3", "--p", "5", "--seed", "1"], 0,
     "540312d61c4876d7cb36d5eb6563e350f2689332caf52c9ad075e0cf8e9d78e1"),
    # the empty family: the floor-0 vector, the highest vector itself
    (["emit", "pi-IJ", "--lambda", "[2,1|1,0]", "--pairs", "[]"], 0,
     "d47937f510b1c3d9f5c238a87ee09ac9ac2c19a0b6ed589473242928044a69b0"),
    (["primitive-k", "--lambda", "[3,1|2,1]", "--pairs", "[]", "--p", "3"], 0,
     "1e92dfbfa1a89e3d6ae88bb18130f61bfad56b2c007ae77ba441a2d84a09b76b"),
    # the wall, which the query pool never reaches: cell (1,1) of the
    # staircase weight [2,1,0|2,1] at (3,2) and of its mirror [2,1|2,1,0] at
    # (2,3), in chars 3 and 5
    *WALL,
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_output_is_byte_identical(capsys, argv, code, digest):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
