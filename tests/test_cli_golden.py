"""The CLI contract, pinned: exit code and SHA-256 of stdout of
`validate`, `chains` and `roundtrip` on every corpus file and on the
brace that `to-brace` writes from it, and the SHA-256 of that brace
file.  An empty brace of dim 400 over Q and a corrupted brace (exit 2)
are pinned too.  `bch` is pinned on every corpus file, on the brace
written from it (exit 1: `bch` expects a pre-Lie file), and on v_6..v_8
over Q and GF(11).  `validate`, `chains`,
`to-prelie` and `roundtrip` are pinned past the dim <= 4 corpus too: on
the flows braces of v_6 over GF(11) and of T_5 over Q, relabelled, on
the pre-Lie T_5 and on a corrupted v_5 brace.  `validate`, `to-brace`
and `bch` are pinned on pre-Lie files that fail the pre-Lie identity,
so the triple and residual each reports stay the same.  Any change of a byte of this output fails here; the
table is regenerated only for an intended change of output, by
printing ``outcomes`` of each case."""

import contextlib
import hashlib
import io
import json
import os

from fractions import Fraction
from pathlib import Path

import pytest

from braceflow import fileio
from braceflow.cli import main
from braceflow.corpus import corpus_dir
from braceflow.prelie import PreLieAlgebra
from braceflow.scalars import GF, Q

CORPUS = sorted(p.name[:-len(".json")] for p in corpus_dir().iterdir()
                if p.name.endswith(".json"))
COMMANDS = ("validate", "chains", "roundtrip")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(*argv):
    """(exit code, SHA-256 of stdout) of the CLI on ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, _sha(out.getvalue())


def _empty_brace(path):
    path.write_text(json.dumps({"format_version": 1, "kind": "brace", "field": "Q",
                                "dim": 400, "entries": []}))


def _corrupted_brace(path):
    """The brace of f4 with one degree-1 value raised by one."""
    assert _run("to-brace", str(corpus_dir() / "f4.json"), "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["entries"][0][-1] = str(Fraction(doc["entries"][0][-1]) + 1)
    path.write_text(json.dumps(doc))


def outcomes(case, workdir):
    """{label: (exit code, SHA-256)} of every command pinned for ``case``,
    run with ``workdir`` as the working directory."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        got = {}
        if case in CORPUS:
            path = str(corpus_dir() / f"{case}.json")
            for command in COMMANDS:
                got[command] = _run(command, path)
            got["to-brace"] = _run("to-brace", path, "--out", "brace.json")
            if got["to-brace"][0] == 0:
                got["brace file"] = (0, _sha(Path("brace.json").read_text()))
                for command in COMMANDS:
                    got["brace " + command] = _run(command, "brace.json")
        else:
            {"empty_q400": _empty_brace, "corrupted": _corrupted_brace}[case](
                Path("brace.json"))
            commands = COMMANDS[:2] if case == "empty_q400" else COMMANDS
            for command in commands:
                got[command] = _run(command, "brace.json")
        return got
    finally:
        os.chdir(old)


GOLDEN = {
    'f4': {
        'validate': (0, '14cafd7620942796d3b4a480261d19aa7f258e5bd20c7e9a7fe5a88927d6f62c'),
        'chains': (0, '3a45adf4b0851b3888a05481d0dd6c86cae1d249fcc9b01954670d5541156cbc'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, '6a27c4b54e01b72e4eb65ccd80162a0fc3db6b63b70c98e919be57e87365c568'),
        'brace file': (0, '44df5a315dd7004c50b05bf2a8e26a169f514e1d021fc3e134f35e9a3374dc34'),
        'brace validate': (0, '00a6f3b616b568982c6e087bb56f70b349e3522b615f5de94d07f315a2ca6e4b'),
        'brace chains': (0, '3a45adf4b0851b3888a05481d0dd6c86cae1d249fcc9b01954670d5541156cbc'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'f4_p11': {
        'validate': (0, '55aa56df27fbc2df98d92b436a5f52305751be3820733033efaa3a179fd24a55'),
        'chains': (0, '3a45adf4b0851b3888a05481d0dd6c86cae1d249fcc9b01954670d5541156cbc'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, '6a27c4b54e01b72e4eb65ccd80162a0fc3db6b63b70c98e919be57e87365c568'),
        'brace file': (0, 'fcfb07019005c820479de1fd8afc3c5876879aeb1fdac6eceec75a21fbc1398e'),
        'brace validate': (0, '6015d421f2624225442fd26f24e9be98cecbbe28e41bdeb0984625bfd83a7e04'),
        'brace chains': (0, '3a45adf4b0851b3888a05481d0dd6c86cae1d249fcc9b01954670d5541156cbc'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'f4_p7': {
        'validate': (0, '120a9268951cfc948326a5ff4ec76372eda48b8ec57cd01e99c616f061dfaeef'),
        'chains': (0, '3a45adf4b0851b3888a05481d0dd6c86cae1d249fcc9b01954670d5541156cbc'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, '6a27c4b54e01b72e4eb65ccd80162a0fc3db6b63b70c98e919be57e87365c568'),
        'brace file': (0, 'f59e7603d2a8ff45126d717077db63fc10b438c3f6699d65b8c7326c874f9eda'),
        'brace validate': (0, '83a903f8a9f013f09248f48ebfbe9ef5e1282489e7e19852bc4448154528c1c2'),
        'brace chains': (0, '3a45adf4b0851b3888a05481d0dd6c86cae1d249fcc9b01954670d5541156cbc'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'h3': {
        'validate': (0, '0b0ede143d90acfdb82334ef2c18fb9923e1f616b23ef2c0a18ace5bef8745a8'),
        'chains': (0, '8332f630eebf799180e717aa39214b7a5a82593dd27a65aa62c394f694605c26'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, '1457c21b99408f063717463fa852259d381a4b94591359f568528d6584657e3a'),
        'brace file': (0, '4bbd53e943097532414d219bdb0949fdde6cfca3e425c5e00b9df900de78804c'),
        'brace validate': (0, '18c76ef11fa13c8311b4cb20b00afdcd25a4c60cdf822633cb92fb1d2c5fc743'),
        'brace chains': (0, '8332f630eebf799180e717aa39214b7a5a82593dd27a65aa62c394f694605c26'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'h3_p7': {
        'validate': (0, '414c5b0478bd86fb10a6a34c031d9150abd97c62b4406f6b90533c082ad0bfeb'),
        'chains': (0, '8332f630eebf799180e717aa39214b7a5a82593dd27a65aa62c394f694605c26'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, '1457c21b99408f063717463fa852259d381a4b94591359f568528d6584657e3a'),
        'brace file': (0, '229d1f34cd7fd9cf57fd7b84937b3642a364a51d025409fcfb37263b046cc79e'),
        'brace validate': (0, '9edd6ded355825615f5540bcd0b13ad23e774fc416f6f7a585c6e3af1cbc0d3b'),
        'brace chains': (0, '8332f630eebf799180e717aa39214b7a5a82593dd27a65aa62c394f694605c26'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'n2': {
        'validate': (0, 'cc5ea74af7ca5988973526a024c09c856c7225917e3e23ed5e2d92c42bd19024'),
        'chains': (0, 'cff66cbc8850915894578c0d3b417f743cac92627308388a5a77f6c3679fea12'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, 'f2a82efe437768e40e3fc52658349976d526aeab376eb4152c9913f45efb96a2'),
        'brace file': (0, '5aaa3ac618f3d964b3f9810e2ab498a8dfe35ba5e1699907eab7714944ff28e2'),
        'brace validate': (0, 'c990b0e79c9eaf2b7364638b717c963850e67cce239db6f380c66ee8194af993'),
        'brace chains': (0, 'cff66cbc8850915894578c0d3b417f743cac92627308388a5a77f6c3679fea12'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'n2_p7': {
        'validate': (0, 'a3de9f4211ff97c37bdd11f7c7d4f1e17037871cc28c7c82a6d01ac744869dec'),
        'chains': (0, 'cff66cbc8850915894578c0d3b417f743cac92627308388a5a77f6c3679fea12'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, 'f2a82efe437768e40e3fc52658349976d526aeab376eb4152c9913f45efb96a2'),
        'brace file': (0, 'f4746db2389b6a54acac498c2c81b869a2f43f0c0f530fd418c741f28b166921'),
        'brace validate': (0, '054dbbb76d25669d52e0ab362ffebbbff0bb2e9b7da113f61c462a3cffcd0892'),
        'brace chains': (0, 'cff66cbc8850915894578c0d3b417f743cac92627308388a5a77f6c3679fea12'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'v5': {
        'validate': (0, '8026e81c9523e2923d96e61444a66c3a2ffa0d77493826aa1a83a76db44f1167'),
        'chains': (0, '51177fc7d95c6c8e2f213780b177703572a4d0f75d477725b32de7898382a387'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, 'c425f89f3322d3b0c33733116dc0969a04602ce18ac41d4af077127e94bad286'),
        'brace file': (0, 'f6edd64240064ad45a5726286e73e70b5f019a5f3a93dbb3330cb88ccd619b32'),
        'brace validate': (0, 'd72ed538eed4f348d0c1ba086b11e79d6af32bd5faa5c96785e4c850d5f29391'),
        'brace chains': (0, '51177fc7d95c6c8e2f213780b177703572a4d0f75d477725b32de7898382a387'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'v5_p11': {
        'validate': (0, 'ea2505d17df0222618fc7c8ec656342b660f879779d138be23fbcb99f008d522'),
        'chains': (0, '51177fc7d95c6c8e2f213780b177703572a4d0f75d477725b32de7898382a387'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, 'c425f89f3322d3b0c33733116dc0969a04602ce18ac41d4af077127e94bad286'),
        'brace file': (0, '00048e70a5d42860166651299ce15ec19c2487237f7f6e897b67b26fb9780f16'),
        'brace validate': (0, 'b8d4a5011ad2ed47d0ff8513e8df39d67d3a8511cdf0ea4e92323cae1cdf2dac'),
        'brace chains': (0, '51177fc7d95c6c8e2f213780b177703572a4d0f75d477725b32de7898382a387'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'v5_p7': {
        'validate': (0, '77503b5341e118fddc638d08e510234f29e407ec5ad441ca4c0184c6f479c7af'),
        'chains': (0, '51177fc7d95c6c8e2f213780b177703572a4d0f75d477725b32de7898382a387'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, 'c425f89f3322d3b0c33733116dc0969a04602ce18ac41d4af077127e94bad286'),
        'brace file': (0, 'a7345504183a4328164e6a85b0f5f3378b808658e67fea6cec3a3179d82ad649'),
        'brace validate': (0, '5d5f26083ccc81b76433a95ddf061f80173c2659dd47c3e95a78f0788472ea33'),
        'brace chains': (0, '51177fc7d95c6c8e2f213780b177703572a4d0f75d477725b32de7898382a387'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'zero1': {
        'validate': (0, '2cba0016bb4af84fb5df3b53211c2cf2eb274a7d16dcf062a7e0f280a63b240d'),
        'chains': (0, '9f0551d59547cb64ecd79618766c3f9d91bae577c91f33379999b45d340192fa'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, 'b7cb90363b8930509a805a9230b0da221baaa281e54f31f4dfcff2e66efb4e3d'),
        'brace file': (0, 'a6ecd1972339349a5c6bd0194909a12def19620e8135e9b17181b2f2c8e14859'),
        'brace validate': (0, 'd2707026f330c5672f7dc8f6fbf80b4467cad343d4fb23b4380103cefd95327c'),
        'brace chains': (0, '9f0551d59547cb64ecd79618766c3f9d91bae577c91f33379999b45d340192fa'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'zero2': {
        'validate': (0, 'afc3e6a67a1fa963106c945443e403522b515466b8715d019479181fd24a7402'),
        'chains': (0, '2a877e24c5a8eabeb07ff9f08afe53459cfe260c27ccb4769ebe14c924c0886e'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, '913af33fab932c17a99eaf571928b8041cbe4c67bcf002d746c8df6db772007b'),
        'brace file': (0, '63cf5aad09b5781fc562dc818d8c2ae24b753255c7eaf8acf027d346b3b6bff5'),
        'brace validate': (0, '80dd88948b82694dade7b19cb5bb2a1eb8e0d14ee1d063a19492a267be5dea11'),
        'brace chains': (0, '2a877e24c5a8eabeb07ff9f08afe53459cfe260c27ccb4769ebe14c924c0886e'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'zero3': {
        'validate': (0, '9650618ca997d3386589e4b2c82e04467910a68e86ca7e69fab1365b943a954f'),
        'chains': (0, '75ec50105e2696bd99d6d006e95c7e25078c9bed37be4ec2970950416713549d'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
        'to-brace': (0, 'f7dc2a5db9d20c6b803ff6c1a5d4d054137dfa0598e03011e771c6debd8d8c56'),
        'brace file': (0, '9b4a29c70ed0e73ab15245950677dba58de7476ad6f342b5b84f9ac2090444c3'),
        'brace validate': (0, '42a6f8a0307209e03a626b8cbd7407bc92366171f8cd209121ecb25d772096f3'),
        'brace chains': (0, '75ec50105e2696bd99d6d006e95c7e25078c9bed37be4ec2970950416713549d'),
        'brace roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
    },
    'empty_q400': {
        'validate': (0, '7520882dd4752b72c1badde057845851f6bdbf8db23a288da3298b65edc0713c'),
        'chains': (0, 'd6d6c9e4cd84f7bbff62fb2a1769bebbfd8504415085de162e31fca954d1c0b3'),
    },
    'corrupted': {
        'validate': (2, 'e1aba98bca88d93b058630552b54c776d73a2fb41cca3a8e678808d4a82dcb26'),
        'chains': (2, '88a114e33af32cb31dd8d0464fb4bb91e83f8523c370b5142d78ea73932b1b63'),
        'roundtrip': (2, '88a114e33af32cb31dd8d0464fb4bb91e83f8523c370b5142d78ea73932b1b63'),
    },
}


@pytest.mark.parametrize("case", CORPUS + ["empty_q400", "corrupted"])
def test_cli_output_pinned(case, tmp_path):
    assert outcomes(case, tmp_path) == GOLDEN[case]


def test_every_corpus_file_is_pinned():
    assert set(GOLDEN) == set(CORPUS) | {"empty_q400", "corrupted"}


def _v_file(path, n):
    """v_n: e_i e_j = j e_{i+j}, zero past weight n (class n + 1), over Q."""
    entries = [[i - 1, j - 1, i + j - 1, str(j)]
               for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n]
    path.write_text(json.dumps({"format_version": 1, "kind": "prelie", "field": "Q",
                                "dim": n, "entries": entries}))


def bch_outcomes(case, workdir):
    """{label: (exit code, SHA-256)} of `bch` for ``case``, a corpus name
    or "v6".."v8", run with ``workdir`` as the working directory."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        if case in CORPUS:
            path = str(corpus_dir() / f"{case}.json")
            assert _run("to-brace", path, "--out", "brace.json")[0] == 0
            return {"bch": _run("bch", path), "brace bch": _run("bch", "brace.json")}
        _v_file(Path("v.json"), int(case[1:]))
        return {field: _run("bch", "v.json", "--field", field) for field in ("Q", "11")}
    finally:
        os.chdir(old)


BCH_CASES = CORPUS + ["v6", "v7", "v8"]
BCH_GOLDEN = {
    'f4': {
        'bch': (0, '007e6bef19d9a596f60a9f073ed80e200923668d0086025a4b93e995015fbfa4'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f4_p11': {
        'bch': (0, '007e6bef19d9a596f60a9f073ed80e200923668d0086025a4b93e995015fbfa4'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f4_p7': {
        'bch': (0, '007e6bef19d9a596f60a9f073ed80e200923668d0086025a4b93e995015fbfa4'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'h3': {
        'bch': (0, 'edc9f504e110afdbf26e5d8bb43283e06d2cda3477fa5fa74884ca9e2069d0ff'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'h3_p7': {
        'bch': (0, 'edc9f504e110afdbf26e5d8bb43283e06d2cda3477fa5fa74884ca9e2069d0ff'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'n2': {
        'bch': (0, 'edc9f504e110afdbf26e5d8bb43283e06d2cda3477fa5fa74884ca9e2069d0ff'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'n2_p7': {
        'bch': (0, 'edc9f504e110afdbf26e5d8bb43283e06d2cda3477fa5fa74884ca9e2069d0ff'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'v5': {
        'bch': (0, '45f91d6637cf233fff5b0976f299aedb1a0b9f61045a69310bc1b181ebc39f0b'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'v5_p11': {
        'bch': (0, '45f91d6637cf233fff5b0976f299aedb1a0b9f61045a69310bc1b181ebc39f0b'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'v5_p7': {
        'bch': (0, '45f91d6637cf233fff5b0976f299aedb1a0b9f61045a69310bc1b181ebc39f0b'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'zero1': {
        'bch': (0, '14998e5fe8112d1c36bc48e8624913847145ea4c875a79ec8996c109960d25ed'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'zero2': {
        'bch': (0, '14998e5fe8112d1c36bc48e8624913847145ea4c875a79ec8996c109960d25ed'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'zero3': {
        'bch': (0, '14998e5fe8112d1c36bc48e8624913847145ea4c875a79ec8996c109960d25ed'),
        'brace bch': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'v6': {
        'Q': (0, 'aad8918d1152aa0c22b56d2a139b98e9cc25a1ff29c4c5ff1647097398d3aecd'),
        '11': (0, 'aad8918d1152aa0c22b56d2a139b98e9cc25a1ff29c4c5ff1647097398d3aecd'),
    },
    'v7': {
        'Q': (0, '41bf490626315dd06ac1ef9e8680bae4250490de873b2365da303c84636c5e9b'),
        '11': (0, '41bf490626315dd06ac1ef9e8680bae4250490de873b2365da303c84636c5e9b'),
    },
    'v8': {
        'Q': (0, '30af151827f23f48d6652ef1eb76deab1eef5d0b598ac41b7135f52b1cf0238b'),
        '11': (0, '30af151827f23f48d6652ef1eb76deab1eef5d0b598ac41b7135f52b1cf0238b'),
    },
}


@pytest.mark.parametrize("case", BCH_CASES)
def test_bch_output_pinned(case, tmp_path):
    assert bch_outcomes(case, tmp_path) == BCH_GOLDEN[case]


def test_every_bch_case_is_pinned():
    assert set(BCH_GOLDEN) == set(BCH_CASES)


SCALE_COMMANDS = ("validate", "chains", "to-prelie", "roundtrip")


def _generated_file(path, generators, s, p, seed=None):
    """The pre-Lie file of a bench/generators.py structure over Q (p = 0)
    or GF(p), relabelled by ``seed`` when given."""
    entries = s.entries if seed is None else generators.relabel(
        s.entries, *generators.relabelling(s.dim, seed), p)
    table = {}
    for (_, (i,), j, k), val in entries.items():
        table.setdefault((i, j), {})[k] = val
    fileio.write_file(PreLieAlgebra(GF(p) if p else Q, s.dim, table), path)


def scale_outcomes(case, workdir, generators):
    """{label: (exit code, SHA-256)} of the four commands on ``case`` and
    of the files they write, run with ``workdir`` as the working
    directory: "v6_GF11" and "T5_Q" are the relabelled flows braces (the
    brace file is pinned too), "T5_prelie" the pre-Lie T_5 and
    "v5_corrupted" v_5's brace over Q with its first top-degree entry
    plus one."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        got = {}
        g = generators
        if case == "T5_prelie":
            _generated_file(Path("in.json"), g, g.trees(5), 0)
        else:
            s, p, seed = {"v6_GF11": (g.v(6), 11, 3), "T5_Q": (g.trees(5), 0, 3),
                          "v5_corrupted": (g.v(5), 0, None)}[case]
            _generated_file(Path("prelie.json"), g, s, p, seed)
            assert _run("to-brace", "prelie.json", "--out", "in.json")[0] == 0
            doc = json.loads(Path("in.json").read_text())
            if case == "v5_corrupted":
                top = max(entry[0] for entry in doc["entries"])
                entry = next(e for e in doc["entries"] if e[0] == top)
                entry[-1] = str(Fraction(entry[-1]) + 1)
                Path("in.json").write_text(json.dumps(doc))
            got["brace file"] = (0, _sha(Path("in.json").read_text()))
        for command in SCALE_COMMANDS:
            out = ("--out", "out.json") if command == "to-prelie" else ()
            got[command] = _run(command, "in.json", *out)
        if Path("out.json").exists():
            got["to-prelie file"] = (0, _sha(Path("out.json").read_text()))
        return got
    finally:
        os.chdir(old)


SCALE_CASES = ("v6_GF11", "T5_Q", "T5_prelie", "v5_corrupted")
SCALE_GOLDEN = {
    'v6_GF11': {
        'brace file': (0, 'f60d88fcf88f63d03079f10c2e61dd0e7af933128bc8aa942f155002bb040dc0'),
        'validate': (0, '15f93bcd40644fe42c4b7d1618cbeb1d850786fd98db8637897a5f7ec0eeb0b8'),
        'chains': (0, 'baa97165f2c20043ba5bce7a780b5702792b21b71539419cf8e2150d4f4aeab3'),
        'to-prelie': (0, '04cd2deee4ce7b1bd1a55ba264252217b5398be20dc4f2e86d5b45b87e125cd0'),
        'roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
        'to-prelie file': (0, 'a8d0b3dfeeb16fa9eb32e2b5b2dd20c0bd313203c1691d830b2c4792c0b9b9eb'),
    },
    'T5_Q': {
        'brace file': (0, 'd8ac3d200e2c8c9a75b82779ca3b9ce263c78d9662607dd7247852688af99437'),
        'validate': (0, 'a8a9c071d5d554f1f9e2bf40ff4a32eae1a51d1ac48a653a40d6c014044ffe6e'),
        'chains': (0, '56c735c8ed42f419bb5c64f34912690d2410a585feb3e97397d6925cdc249f27'),
        'to-prelie': (0, '829a4fa4c2d561199a19627875d1e0963ac016de1af0760e088c8d947edb0d05'),
        'roundtrip': (0, 'b94fca72c4af3355c5cf5fe40176cf133d2926c353502bb78ca6695ebf5c6adf'),
        'to-prelie file': (0, '948c202dc395d8b166eb57e80cf11042cc4ed735986afa77ea1d4f69f93754c2'),
    },
    'T5_prelie': {
        'validate': (0, '1de7c1d672bfc67531b63cb85901ff64e8d61ba8a95b9b92c3c97b8384d7ac82'),
        'chains': (0, '56c735c8ed42f419bb5c64f34912690d2410a585feb3e97397d6925cdc249f27'),
        'to-prelie': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'roundtrip': (0, '7e959678fc33a88007e1b10c0e7b7ff650ff406069c10a895e93057c44b45201'),
    },
    'v5_corrupted': {
        'brace file': (0, '8f4c48927b740b410236c12782036a4ed5e3ca17e71d5a1a612cffa6181d2b6e'),
        'validate': (2, '90c0a6e3e4552763bfcd10a90a8edc6afe4fb0e7575d2e78ffcf6a8f0d3b9e91'),
        'chains': (2, '40ae6cc5e9507b25c1854c3032ac9e9937b556f08201ddfe4cef055796f35b16'),
        'to-prelie': (2, '40ae6cc5e9507b25c1854c3032ac9e9937b556f08201ddfe4cef055796f35b16'),
        'roundtrip': (2, '40ae6cc5e9507b25c1854c3032ac9e9937b556f08201ddfe4cef055796f35b16'),
    },
}


@pytest.mark.parametrize("case", SCALE_CASES)
def test_cli_output_pinned_past_the_corpus(case, tmp_path, bench_generators):
    assert scale_outcomes(case, tmp_path, bench_generators) == SCALE_GOLDEN[case]


def test_every_case_past_the_corpus_is_pinned():
    assert set(SCALE_GOLDEN) == set(SCALE_CASES)


def _failing_file(path, case, generators):
    """A pre-Lie file that fails the pre-Lie identity: "v6_corrupted" is
    v_6 over Q, relabelled, with one product added; "only_e_i" and
    "only_e_j" are the dim 3 tables whose first failing pair (0, 1) has a
    row at e_i only, then at e_j only; "v5_GF7" is v_5 over GF(7) with two
    products added, one of them written unreduced."""
    p, dim, table = 0, 3, {}
    if case in ("v6_corrupted", "v5_GF7"):
        p = 7 if case == "v5_GF7" else 0
        s = generators.v(6 if p == 0 else 5)
        entries = (s.entries if p else
                   generators.relabel(s.entries, *generators.relabelling(s.dim, 3), p))
        dim = s.dim
        for (_, (i,), j, k), val in entries.items():
            table.setdefault((i, j), {})[k] = val
        extra = ({(1, 2): {4: Fraction(1, 2)}} if p == 0
                 else {(0, 2): {4: 15}, (2, 1): {3: 3}})
        for key, val in extra.items():
            table.setdefault(key, {}).update(val)
    else:
        table = ({(0, 1): {2: 1}, (2, 0): {0: 1}} if case == "only_e_i"
                 else {(1, 0): {2: 1}, (2, 0): {0: 1}})
    fileio.write_file(PreLieAlgebra(GF(p) if p else Q, dim, table, validate=False), path)


def failing_outcomes(case, workdir, generators):
    """{label: (exit code, SHA-256)} of `validate`, `to-brace` and `bch`
    on the pre-Lie file of ``case`` (``_failing_file``), run with
    ``workdir`` as the working directory: each reports the first failing
    triple of the pre-Lie identity and its residual."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        _failing_file(Path("in.json"), case, generators)
        got = {"file": (0, _sha(Path("in.json").read_text()))}
        for command in ("validate", "to-brace", "bch"):
            out = ("--out", "out.json") if command == "to-brace" else ()
            got[command] = _run(command, "in.json", *out)
        assert not Path("out.json").exists()
        return got
    finally:
        os.chdir(old)


FAILING_CASES = ("v6_corrupted", "only_e_i", "only_e_j", "v5_GF7")

FAILING_GOLDEN = {
    'v6_corrupted': {
        'file': (0, '82b45ed8e6e3c0429bdc25cf201eed4ed65e7b24ee73c1d89ea9b38d3364cca5'),
        'validate': (2, '69e7d725d65d7d3fbff184b0987244a375e43a830006f26eae62f77d37e441ce'),
        'to-brace': (2, 'ddad10c1d7ee884b58380c4ce7624ab471f2b26bbc4cd6edb1617d968351508f'),
        'bch': (2, 'ddad10c1d7ee884b58380c4ce7624ab471f2b26bbc4cd6edb1617d968351508f'),
    },
    'only_e_i': {
        'file': (0, 'da1d7696ad3459214fa176e0acf84a641e52d6427c43c73ce31a49f2f3efc07c'),
        'validate': (2, 'a5ee98cbc74c6d02336f559d5ad7b42d3eb135a3758b59877f1977f6027b309f'),
        'to-brace': (2, '05f6e88e5bc490e6e49335bf1f10191a8a7eaf7281d6e66bb256ccf0ac6c9307'),
        'bch': (2, '05f6e88e5bc490e6e49335bf1f10191a8a7eaf7281d6e66bb256ccf0ac6c9307'),
    },
    'only_e_j': {
        'file': (0, 'f03e1f38d39c2efc1d1975e70a60862a4517d71be2d3135eda927e0da117136a'),
        'validate': (2, '4a38fc2ea08e739d079cca3714700baf4322d1fd7a120ce7b54a4ada22b8cd98'),
        'to-brace': (2, 'bcbae60786ecbd68b55a2d49a6362bd33fa84da2927c25a0c59ec81c0900deb8'),
        'bch': (2, 'bcbae60786ecbd68b55a2d49a6362bd33fa84da2927c25a0c59ec81c0900deb8'),
    },
    'v5_GF7': {
        'file': (0, '314992a76a1d66aa8b72feaf1cb13a1e45181e72d9a2fea2fa8612be8b24167a'),
        'validate': (2, '3823f7eed98088da12237e95b4caeeffa4dc521d4f19bf1a9c16ca76619aa9c3'),
        'to-brace': (2, '682e81341709cd7bac43d8c0abac263203d01d48e79311a62759860e08c02451'),
        'bch': (2, '682e81341709cd7bac43d8c0abac263203d01d48e79311a62759860e08c02451'),
    },
}


@pytest.mark.parametrize("case", FAILING_CASES)
def test_pre_lie_failures_pinned(case, tmp_path, bench_generators):
    assert failing_outcomes(case, tmp_path, bench_generators) == FAILING_GOLDEN[case]


def test_every_failing_case_is_pinned():
    assert set(FAILING_GOLDEN) == set(FAILING_CASES)
