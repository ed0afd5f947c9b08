"""Golden reports: SHA-256 digests of the ``--format json`` and the
``--format text`` stdout of the command line on fixed inputs, with the
exit code.

The digests were pinned once and are the byte-level specification of the
reports: a refactor must reproduce every one of them.  A command that ends
in an input error prints nothing on stdout, so its digest is that of the
empty string and the exit code carries the check.
"""

import hashlib
import json

import pytest

from cmwild.cli import main

FERMAT = {"vars": ["x", "y", "z"], "relations": ["x^4+y^4+z^4"], "p": 32003}
BINARY = {"vars": ["x", "y"], "relations": ["x^4+y^4"], "p": 32003}
CUBIC = {"vars": ["x", "y", "z"], "relations": ["x^3+y^3+z^3"], "p": 32003}
CI = {
    "vars": ["x0", "x1", "x2", "x3"],
    "relations": ["x0^3+x1^3+x2^3+x3^3", "x0*x1+x2*x3"],
    "p": 32003,
}
ARTINIAN = {
    "vars": ["x", "y", "z"],
    "relations": ["x^4+y^4+z^4", "x^2", "y^2"],
    "p": 32003,
}
RINGS = {"fermat": FERMAT, "binary": BINARY, "cubic": CUBIC, "ci": CI}

FERMAT_N1 = {
    "ring": FERMAT, "sequence": ["x^2", "y^2"], "c": 4, "n": 1,
    "Ax": [[1]], "Ay": [[2]],
}
BINARY_N2 = {"ring": BINARY, "sequence": ["x^2"], "c": 3, "n": 2, "Ax": [[0, 1], [0, 0]]}
INSTANCES = {"fermat_n1": FERMAT_N1, "binary_n2": BINARY_N2}
CONJUGATE_A = {**FERMAT_N1, "n": 2, "Ax": [[0, 1], [0, 0]], "Ay": [[1, 0], [0, 1]]}
CONJUGATE_B = {**FERMAT_N1, "n": 2, "Ax": [[0, 7], [0, 0]], "Ay": [[1, 0], [0, 1]]}


def _cases():
    """{case name: argv with {file} placeholders naming the input files}."""
    cases = {}
    for name in RINGS:
        ring = ["--ring", "{" + name + "}"]
        cases[f"check-{name}"] = ["check", *ring]
        cases[f"check-{name}-sequence"] = ["check", *ring, "--sequence", "x^2,y^2"]
        cases[f"check-{name}-window"] = ["check", *ring, "--c-window", "5..9"]
    for name in ("fermat", "binary", "cubic"):
        cases[f"hypersurface-{name}"] = ["hypersurface", "--ring", "{" + name + "}"]
    for name in ("ci", "fermat"):
        cases[f"ci-{name}"] = ["ci", "--ring", "{" + name + "}"]
    for name in INSTANCES:
        inst = ["--instance", "{" + name + "}"]
        cases[f"family-{name}"] = ["family", *inst]
        cases[f"verify-{name}"] = ["verify", *inst]
        cases[f"resolve-{name}"] = ["resolve", *inst]
    cases["resolve-ring-sequence"] = [
        "resolve", "--ring", "{fermat}", "--sequence", "x^2,y^2",
    ]
    cases["hilbert-artinian"] = ["hilbert", "--ring", "{artinian}"]
    cases["iso-conjugate"] = [
        "iso", "--instance", "{conj_a}", "--instance", "{conj_b}",
    ]
    return cases


CASES = _cases()

# case name -> (exit code, SHA-256 of stdout)
DIGESTS = {
    "check-binary": (0, "60e0e2f42cc0ec7c5745c5c61f5085aa4ae219d71cc86be4fdfcb7852a1bc175"),
    "check-binary-sequence": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check-binary-window": (0, "6d6fa7838f709f347d63f51cb80f9e3e3a1d6f9ae0e0b27b63229f56f095fb86"),
    "check-ci": (0, "b7fc4c7b2d7d70ff68e0042bb86a5b4034fdc6af41c2bc5e6ac20fcb1193efa9"),
    "check-ci-sequence": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check-ci-window": (0, "356f090683f877955bbdf6a662dbdfabe8ed159cc4443b21b3610e8dc4b9a7dc"),
    "check-cubic": (0, "7f806f49fca2f2dbb37754c829212af56bc0e0b0c34a7df5c81029cb6cd0cff0"),
    "check-cubic-sequence": (0, "7f806f49fca2f2dbb37754c829212af56bc0e0b0c34a7df5c81029cb6cd0cff0"),
    "check-cubic-window": (0, "c79a74cc44d4ea9694dc150df433fa2fb4cd0b61e9a56aacefb5e2a6614c9ff4"),
    "check-fermat": (0, "6e754e253c24c7e8c4366247853f575c59935def89c82791fc00683c6d8cc0db"),
    "check-fermat-sequence": (0, "6e754e253c24c7e8c4366247853f575c59935def89c82791fc00683c6d8cc0db"),
    "check-fermat-window": (0, "6ae14adbe9b1a4cdac6233b08c699ff9d873f0374e6f174d1750cd8cb73ade21"),
    "ci-ci": (0, "b7fc4c7b2d7d70ff68e0042bb86a5b4034fdc6af41c2bc5e6ac20fcb1193efa9"),
    "ci-fermat": (0, "6e754e253c24c7e8c4366247853f575c59935def89c82791fc00683c6d8cc0db"),
    "family-binary_n2": (0, "b20a4fae2a2204e78fc0f1d4c24f2034a063354b6d5acdefa55db75985c3f361"),
    "family-fermat_n1": (0, "6d540910741c2c1a1b532fffff0501c7717f03a736cb6a4afca5c933dd201dce"),
    "hilbert-artinian": (0, "2d2551c37427114fe5d674da1255b43e298839ee7aa34a46f99251ea861d260a"),
    "hypersurface-binary": (0, "60e0e2f42cc0ec7c5745c5c61f5085aa4ae219d71cc86be4fdfcb7852a1bc175"),
    "hypersurface-cubic": (0, "7f806f49fca2f2dbb37754c829212af56bc0e0b0c34a7df5c81029cb6cd0cff0"),
    "hypersurface-fermat": (0, "6e754e253c24c7e8c4366247853f575c59935def89c82791fc00683c6d8cc0db"),
    "iso-conjugate": (0, "dc09ae342010e01dce173d8552e7c897dc4b8d289630ea26eeaa18eacaa0a3c9"),
    "resolve-binary_n2": (0, "90e9a96acbb4fed7b0658178de7bb5a7fe33df2862409117ac5fd1ad43f08613"),
    "resolve-fermat_n1": (0, "049ba84eda17d919a80da174d1a37c4a0f124ffa7865b895ac8fd656f9222f1d"),
    "resolve-ring-sequence": (0, "e4025b4f895a9c128c8d12a867243d004b94c7dfc6dc7aefba3129a12c8201c3"),
    "verify-binary_n2": (0, "4ac566c68b7a7c69523a0f8cc2127ae44eb63c44846af9b5a132d31fc9be8f19"),
    "verify-fermat_n1": (0, "63013c32d72b1cc9b357bb14596a3f3a3cba70689b1b78281ded06bacdf15b4c"),
}

# case name -> (exit code, SHA-256 of the ``--format text`` stdout)
TEXT_DIGESTS = {
    "check-binary": (0, "4c3caedd1d194d527aa431d25fab5ee4cbcb0389f7492887f4aacc2bb097ceeb"),
    "check-binary-sequence": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check-binary-window": (0, "a521bcedb44519d46fcb9c2c3a3b2e0392d8f3c904508738ab8ab5e7000712ef"),
    "check-ci": (0, "2c3c80875c809f8706bf09bb5037f616cf92998826b3da3b82b2af7b08217b75"),
    "check-ci-sequence": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check-ci-window": (0, "96397560098bd196194f0f4d54a67cb783793fccbc72e8bd0078fd9b251c1d32"),
    "check-cubic": (0, "a59d59e7e152c0463343f03a013aaf407f4148f7a3ad130d7b5dfc985e64447e"),
    "check-cubic-sequence": (0, "a59d59e7e152c0463343f03a013aaf407f4148f7a3ad130d7b5dfc985e64447e"),
    "check-cubic-window": (0, "c309e66c677d5f53a6e312eb04c1f5a0222f6533253ac2db56646f7925cb3c60"),
    "check-fermat": (0, "4c5ed3dc8e011b1b57ba654afbcbe749038b2c590518496ff752845d9339e620"),
    "check-fermat-sequence": (0, "4c5ed3dc8e011b1b57ba654afbcbe749038b2c590518496ff752845d9339e620"),
    "check-fermat-window": (0, "673c78319d9adaaebf185e06e48e308314c891cd420df6bf76fb41add3f80145"),
    "ci-ci": (0, "2c3c80875c809f8706bf09bb5037f616cf92998826b3da3b82b2af7b08217b75"),
    "ci-fermat": (0, "4c5ed3dc8e011b1b57ba654afbcbe749038b2c590518496ff752845d9339e620"),
    "family-binary_n2": (0, "1e9c972195f5b41e30e6cc712c7188df3e98de8d17133e2da40aff952ef1f77a"),
    "family-fermat_n1": (0, "9eb7e5fa363dd73d4f38a0ea4a90ce3f2122793d258815a32045056e72419a7c"),
    "hilbert-artinian": (0, "2abb102eeb950a04c157ca7a8b2eb28729e0bbcd42f460ccf66e16f8fe190a86"),
    "hypersurface-binary": (0, "4c3caedd1d194d527aa431d25fab5ee4cbcb0389f7492887f4aacc2bb097ceeb"),
    "hypersurface-cubic": (0, "a59d59e7e152c0463343f03a013aaf407f4148f7a3ad130d7b5dfc985e64447e"),
    "hypersurface-fermat": (0, "4c5ed3dc8e011b1b57ba654afbcbe749038b2c590518496ff752845d9339e620"),
    "iso-conjugate": (0, "1ff46d0893ce23c6942ffcbda5dd9f81f893181bc582fe943b3f1d25307588d1"),
    "resolve-binary_n2": (0, "61a1481f8aa930f0c3ec6209510010aaafe9fec071cb892f452d34b3ca7dbdcd"),
    "resolve-fermat_n1": (0, "6a2af0be11c93c06a1f8018b92201f62b8a1e5b49e1152ba598f8af9942fea9a"),
    "resolve-ring-sequence": (0, "6b21383825e0c256e84606c7f47bfa149244d49f8a3bed6290064cb654b3be41"),
    "verify-binary_n2": (0, "fc8b97587fe9f36ad07ccb7f67fd39497a9f5f1546149bb112824ba81b476edc"),
    "verify-fermat_n1": (0, "fc8b97587fe9f36ad07ccb7f67fd39497a9f5f1546149bb112824ba81b476edc"),
}


def _files(tmp_path) -> dict:
    data = {
        **RINGS, **INSTANCES, "artinian": ARTINIAN,
        "conj_a": CONJUGATE_A, "conj_b": CONJUGATE_B,
    }
    out = {}
    for key, payload in data.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(payload))
        out[key] = str(path)
    return out


def run_case(name, tmp_path, capsys, fmt="json"):
    files = _files(tmp_path)
    argv = [arg.format(**files) for arg in CASES[name]] + ["--format", fmt]
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_every_case_is_pinned():
    assert set(DIGESTS) == set(CASES)
    assert set(TEXT_DIGESTS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_text_report(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys, "text") == TEXT_DIGESTS[name]
