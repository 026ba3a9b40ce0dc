"""Command-line contract: exit codes, byte-identical stdout, and rejection of
out-of-range input.

The digests below are SHA-256 hashes of stdout recorded before the sparse
element classes and the quasi-shuffle recursions were merged; they pin the
text and JSON renderings and the scalar/element/series promotion rules of
``eval``.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wqsym import series, suites, words
from wqsym.cli import CLOSED_PIPE_EXIT, main
from wqsym.serialization import series_to_obj
from wqsym.series import TruncatedSeries, adams, eulerian_idempotent, identity_series

# (argv, exit code, sha256 of stdout)
GOLDEN = [
    (('expand', 'psi', '2', '--degree', '4'), 0, 'ee52a8f98e56cdf2fa40ca4209eac2dee5ef43d32022eca2355091d8dbf27bf9'),
    (('expand', 'psi', '3', '--degree', '3', '--format', 'json'), 0, '3e4223c4050b57d55e3791970239f77b62092dbdcea835cd591773b57434c4e9'),
    (('expand', 'e', '1', '--degree', '4'), 0, '8cdf2f316799f8088a778aea2578c152b38a094e7a647b5d388f297532a2cd85'),
    (('expand', 'e', '2', '--degree', '4', '--format', 'json'), 0, '2dd9ab02cfd5dfe967a67213e9cd89395246268909ea1c03a3e5f9e929d70134'),
    (('expand', 'e', '0', '--degree', '2'), 0, '0fcb908277db6dc1f746c240666e97a1d4e23dfdcbe0ead34e217a6c55ad1efb'),
    (('expand', 'e', '2', '--degree', '6'), 0, 'c7cb5ef6dea26a943208b6b9f21366519392f7ba32c0f907a2e70b4a2ba8d666'),
    (('expand', 'e', '1', '--degree', '6', '--format', 'json'), 0, '1cbf55899fca8c2cc14c7899d27def59ba4379a4447d01e6aac8594e86df0e09'),
    (('expand', 'psi', '3', '--degree', '6'), 0, 'f03d53b4155add6ae7f5f192d6919c2efa1de429395917ce6e8b01ba11f4adac'),
    (('expand', 'e', '1', '--degree', '0', '--format', 'json'), 0, 'd5034e94588a4a323e5c28e9591bfde2c404c9d6287b44f3cf3180d255eb7a90'),
    (('expand', 'sigma_t', '--degree', '4'), 0, 'c344869e6a9265c246f6a3b2bd89318fa4ea93a060f12be6e8608174a273e410'),
    (('expand', 'sigma_t', '--degree', '3', '--format', 'json'), 0, '3da86745f36c320f9ef65c695874b44544eea50a8fa87d875605996e0fefbc66'),
    (('generators', '--degree', '5'), 0, '96edf7ecbee0d14e1ba02cfcd511f7b3261473a8fecdc76ad77d4d627b2965e9'),
    (('generators', '--degree', '4', '--format', 'json'), 0, '3a6f8b796294a5a1e1e1cc9a61b4230777b85de46cb05152ef3b50da9f36e8a5'),
    (('realize', '121', '4'), 0, 'a05dee0232cf92ffdda06f200f4745206af31e8930901024f812a3f97c2f8d4a'),
    (('realize', '1,2', '3', '--format', 'json'), 0, 'd7e07b44616cfc7e1339b14c392711f1b6e5dee492b6ed9fbfdf40077b77f1f7'),
    (('verify', 'all', '--degree', '4', '--cases', '10'), 0, '1026c1aa2dcbd7432d55af9b546af5aa8b4a60e201f8bf52f963f1d74d2424ff'),
    (('verify', 'internal', '--degree', '3', '--cases', '5', '--format', 'json'), 0, 'b78b7597fa6c00f61c42523806e817d0c6d189b1f42f64e68548d29ae77dd1ab'),
    (('eval', '1/2 + 1/3', '--degree', '3'), 0, '4d299c5f0da9aff41b7f439f8de756757d106a61f2391cb95d78c099dd134141'),
    (('eval', '1/2 - 1/3', '--degree', '3'), 0, '75522eea55d4d8622f1e03ed599a3b939006ac74b758f11a848ed65f3f58a2e0'),
    (('eval', '2 * 3/4', '--degree', '3'), 0, '15db25cc8ef7c8d98c34fa63fb044436be605f1df6b7b01ca48e0da3fc002b9b'),
    (('eval', '1/2 @ 3', '--degree', '3'), 0, '15db25cc8ef7c8d98c34fa63fb044436be605f1df6b7b01ca48e0da3fc002b9b'),
    (('eval', '2 & 3', '--degree', '3'), 0, '80bd665d979ee0194f0d1d2e2882d9d293382bfb7db478bcfe64c4ad1ffce461'),
    (('eval', '2 + M[1]', '--degree', '3'), 0, '4143380458202320277df7fc18beaaac47dae7d33e24e945c62c72d1667750de'),
    (('eval', 'M[1,2] - 3', '--degree', '3'), 0, 'dc57cf70201ce8a6bf7cd9a6a28e20b282630db1ca196d4f33fe055d0dcac2ea'),
    (('eval', '1/2 * M[1,2]', '--degree', '3'), 0, '73bb6b25c461dcb84158f3cadc98beb8915a42cf719d1f3c64ff0e972a0bc665'),
    (('eval', '1/2 @ M[1,1]', '--degree', '3'), 0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    (('eval', '3 & M[1]', '--degree', '3'), 0, '4cb1688cbba89e8f6308721dd6fe2b2bc1cf52e9b66b93fea358bdfcddfca75c'),
    (('eval', 'M[] @ 2', '--degree', '3'), 0, 'abc4720046367be414245b2917e0afb7fc5a4c86beea36e80dd62afad45807c5'),
    (('eval', 'M[1] * 0', '--degree', '3'), 0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    (('eval', '-M[2,1] + 0', '--degree', '3'), 0, '5f94f8c843cf2db7d5cc3f4bb8255d9edc7fbf8e8170f37541104e2d7894c6e9'),
    (('eval', 'M[1] + M[2,1]', '--degree', '3'), 0, 'c2706036bb63bf9825568e0c13e87248995e696012004e145f105de8e86006fa'),
    (('eval', 'M[1,1] - M[1,1]', '--degree', '3'), 0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    (('eval', 'M[1,1] * M[2,1]', '--degree', '3'), 0, 'fb97ef13c58026362cce9399a2dc6aff61ab80a1772627bc9e8b4fff06c1ec34'),
    (('eval', 'M[2,1] @ M[1,2]', '--degree', '3'), 0, 'f01839960fcffd94e1b88f176ac8fb0a32dcc56b6c4255292fe9ca740e6d8056'),
    (('eval', 'M[1,1] & M[2,1]', '--degree', '3'), 0, '8bf291be7b27846090ded9b4dee4eb28807ba4833ba0bb64d95e3726df9c00e4'),
    (('eval', 'M[1] + I', '--degree', '3'), 0, 'dae6239114bce6b5dc0a716f4f3dc2b588844fdab6cef1b160d0cd4c1a6cf441'),
    (('eval', 'M[1,2] - Psi(2)', '--degree', '3'), 0, '8547cecddcc864556d1b05e362193a46a14d0692a8986a0f2bfac9c2778514e1'),
    (('eval', 'M[1] * I', '--degree', '3'), 0, '412ec5f615839ee94b3a1eabf3fcba86b3bfdaff874c26ccde6c778d21d45737'),
    (('eval', 'I @ M[1,2]', '--degree', '3'), 0, '96e3fba96105067a7cd65fb9cf409040a88bb763586fbb20b40f9c27a7c23c82'),
    (('eval', 'hatS[1,2]*M[1]@e(2)', '--degree', '3'), 0, 'c0f2de35af47417a39fe6ad2eb16b984165a1d26da42269e1187f2ecebe73e06'),
    (('eval', 'M[2,1] @ e(1)', '--degree', '3'), 0, '6fc0fb9cd6a528b2cd45da36f72c7951879598b0e31160924dccafe91af5aacc'),
    (('eval', 'e(1) - 1', '--degree', '3'), 0, '00207fd0d66ab35f14e6d67ea84844021eb484de388c0e6203ea21843d69b702'),
    (('eval', '2 + I', '--degree', '3'), 0, '1ea73a8ce671ec51c42911f3ebab70ced0e2c9fe1b0603d6c7f16cef6b8927e6'),
    (('eval', '3 * Psi(2)', '--degree', '3'), 0, '52b4b9cd391bbffc5f04debb1eff6beda2c33e6314b3c6b0b5e9f6440ec7e7fe'),
    (('eval', '2 @ e(1)', '--degree', '3'), 0, 'c0f2de35af47417a39fe6ad2eb16b984165a1d26da42269e1187f2ecebe73e06'),
    (('eval', 'I * 1/2', '--degree', '3'), 0, '0b588a8c79590a77af883cfd24d949dd83c260cb592fe9aff486a8f39002dfe2'),
    (('eval', '1 - I', '--degree', '3'), 0, '3d6c6828de6859be5d198d9bc8bf4b6e8b79599a9523770a17d5f8bffa9ef236'),
    (('eval', 'e(1) @ e(1)', '--degree', '3'), 0, '139182b404d43da2469cc0037e8ab39302411b3737bf73d6a691cd45fee3219d'),
    (('eval', 'Psi(2) * Psi(3)', '--degree', '3'), 0, '3992ff6893bb01294bc8852529650f67b20d23872b6a2ccf5130d8c3bbdfb352'),
    (('eval', 'S[2,1] - hatR[1,2]', '--degree', '3'), 0, '7df25e9fa7319ea76a2d20527ab2f97aabcd29963f1e5ec8764c3c35561b6ce7'),
    (('eval', 'I - M[1,2]', '--degree', '3'), 0, 'ac6e47326f53b4675781db33f5e7e8a9f4b0b230feae1afc1ba257d58de4ad18'),
    (('eval', 'Psi(2) @ 2', '--degree', '3'), 0, 'e2cac4656547ec23118698bf21ef7e72139829f749d2f6d9a695cf39630e034f'),
    (('eval', 'M[1] @ I', '--degree', '3'), 0, '222b2297ad3251d82b13b98d8a2c2f3dd794d50c2c6a524e7d06cb8c6dff01fc'),
    (('eval', 'I + 2', '--degree', '3'), 0, '1ea73a8ce671ec51c42911f3ebab70ced0e2c9fe1b0603d6c7f16cef6b8927e6'),
    (('eval', 'S[2,1] + R[1,2]', '--format', 'json'), 0, '8688da4a42e44e0474c6da8f2239e026af56fc93f06556f0d81f74e7d0759cb4'),
    (('eval', 'e(2) - 1', '--degree', '3', '--format', 'json'), 0, '9bd746015a2262893663367fbbdea69272c14fb091f4844fdc8defef7b2e8cd6'),
    (('eval', 'I & M[1]'), 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('eval', '2 & I'), 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('eval', 'M[1] & I'), 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('eval', 'M[1]', '--degree', '8'), 4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('eval', 'M[1,2,3,4] * M[1,2,3,4]'), 4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (('expand', 'e', '1', '--degree', '8'), 4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_golden_stdout(argv, code, digest):
    rc, out, _ = run(argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert run(argv)[:2] == (rc, out)


BAD_INPUT = [
    ("expand", "e", "1", "--degree", "-1"),
    ("eval", "M[1,2]", "--degree", "-1"),
    ("verify", "hopf", "--degree", "-1"),
    ("expand", "psi", "-2"),
    ("expand", "e", "-1"),
    ("verify", "hopf", "--cases", "0"),
    ("verify", "all", "--cases", "-5"),
    ("realize", "12", "-3"),
    # one below each suite's minimum number of base-algebra generators
    ("verify", "convolution", "--generators", "2"),
    ("verify", "all", "--generators", "2"),
    ("verify", "e1-kernel", "--generators", "1"),
    ("verify", "action", "--generators", "0"),
    ("verify", "naturality", "--generators", "0"),
    ("verify", "car-compat", "--generators", "0"),
    ("verify", "hopf", "--generators", "-1"),
    ("verify", "convolution", "--generators", "0"),
    ("verify", "all", "--generators", "0"),
    ("verify", "e1-kernel", "--generators", "0"),
    # a suite or report that would check nothing at degree 0
    ("verify", "e1-kernel", "--degree", "0"),
    ("verify", "generators", "--degree", "0"),
    ("verify", "all", "--degree", "0"),
    ("generators", "--degree", "0"),
    # the expression ends where a token is still expected
    ("eval", ""),
    ("eval", "M[1"),
    ("eval", "(M[1]"),
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_2_with_one_line(argv):
    rc, out, err = run(argv)
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "unexpected end of input"),
        ("M[1", "expected ',' or ']', got end of input"),
        ("(M[1]", "expected ), got end of input"),
        ("M[1,", "expected int, got end of input"),
        ("M[1 2]", "expected ',' or ']', got 2"),
        (")", "unexpected token ')'"),
    ],
)
def test_parse_errors_name_the_end_of_input(text, message):
    assert run(("eval", text)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("M[1]   $", "bad character at position 7: '$'"),
        ("M[1] + #M[2]", "bad character at position 7: '#'"),
        ("%", "bad character at position 0: '%'"),
    ],
)
def test_bad_character_names_its_own_position(text, message):
    assert run(("eval", text)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv", [("eval", "(" * 400 + "1" + ")" * 400), ("eval", "+".join(["1"] * 3000))], ids=["nested", "long-sum"]
)
def test_deep_expression_exits_2_with_one_line(argv):
    rc, out, err = run(argv)
    assert (rc, out) == (2, "")
    assert err == "error: expression nested too deeply\n"


@pytest.mark.parametrize(
    "argv,k",
    [
        (("expand", "psi", "5000", "--degree", "2"), 5000),
        (("eval", "Psi(3000)", "--degree", "2"), 3000),
        (("expand", "psi", "1000000", "--degree", "4"), 1000000),
    ],
)
def test_adams_operation_of_a_large_index(argv, k):
    # Psi^k = sum_i k^i e_i, each e_i = log(I)^(*i) / i! by convolution
    degree = int(argv[-1])
    log = identity_series(degree).log()
    spectral, power = TruncatedSeries.zero(degree), TruncatedSeries.unit(degree)
    for i in range(degree + 1):
        spectral = spectral + power * Fraction(k**i, math.factorial(i))
        power = power * log
    expected = f"{spectral}\n"
    if degree == 2:
        # k(k+1)/2 ways onto the staircase 12, k(k-1)/2 onto 11 and 21
        a, b = k * (k - 1) // 2, k * (k + 1) // 2
        assert expected == f"0: M[]\n1: {k}*M[1]\n2: {a}*M[1,1] + {b}*M[1,2] + {a}*M[2,1]\n"
    assert run(argv) == (0, expected, "")


def test_realize_over_the_empty_alphabet_is_empty():
    assert run(("realize", "12", "0")) == (0, "", "")


def test_failure_reproducer_carries_generators(monkeypatch):
    monkeypatch.setattr(suites, "naturality_check", lambda *args: False)
    argv = ("verify", "naturality", "--degree", "3", "--seed", "7", "--cases", "2", "--generators", "3")
    rc, out, _ = run(argv)
    assert rc == 1
    lines = [line.strip() for line in out.splitlines()]
    reproducer = "wqsym verify naturality --degree 3 --seed 7 --cases 2 --generators 3"
    assert lines[-1] == "reproduce: " + reproducer
    # the reproducer reruns the same case: its last failure is the same line
    rc, rerun, _ = run(reproducer.split()[1:])
    assert rc == 1 and rerun.splitlines()[-2:] == out.splitlines()[-2:]


@pytest.mark.parametrize("calls,cases", [(1, 1), (6, 5)], ids=["fixed", "seeded case 4"])
def test_reproducer_counts_seeded_cases(monkeypatch, calls, cases):
    # crucial makes one fixed call, then one call per seeded case
    made = []

    def fails_on_call(ws):
        made.append(ws)
        return len(made) != calls

    monkeypatch.setattr(suites, "crucial_factorization_check", fails_on_call)
    argv = ("verify", "crucial", "--degree", "4", "--seed", "3", "--cases", "9")
    rc, out, _ = run(argv)
    assert rc == 1
    reproducer = f"wqsym verify crucial --degree 4 --seed 3 --cases {cases} --generators 5"
    assert out.splitlines()[-1].strip() == "reproduce: " + reproducer
    made.clear()
    rc, rerun, _ = run(reproducer.split()[1:])
    assert rc == 1 and rerun.splitlines()[1:] == out.splitlines()[1:]


def test_failures_number_checks_and_reproduce_alike_in_both_formats(monkeypatch):
    # crucial runs three fixed checks, then one per seeded case: calls 1 and 6
    # fail the fixed check 0 and the check 7 of seeded case 4
    made = []

    def fails_on_calls(ws):
        made.append(ws)
        return len(made) not in (1, 6)

    monkeypatch.setattr(suites, "crucial_factorization_check", fails_on_calls)
    argv = ("verify", "crucial", "--degree", "4", "--seed", "3", "--cases", "9")
    rc, out, _ = run(argv)
    assert rc == 1
    text = out.splitlines()[1:]
    assert [line.split(":")[0] for line in text[::2]] == ["  check 0", "  check 7"]
    reproducers = [line.split("reproduce: ")[1] for line in text[1::2]]
    assert [r.split("--cases ")[1] for r in reproducers] == ["1 --generators 5", "5 --generators 5"]
    made.clear()
    rc, out, _ = run(argv + ("--format", "json"))
    assert rc == 1
    failures = json.loads(out)["failures"]
    assert [sorted(f) for f in failures] == [["check", "detail", "reproducer"]] * 2
    assert [f["check"] for f in failures] == [0, 7]
    assert [f["reproducer"] for f in failures] == reproducers


def test_generators_json_reports_each_weight():
    rc, out, _ = run(("generators", "--degree", "3", "--format", "json"))
    assert rc == 0
    assert json.loads(out)[-1] == {
        "weight": 3,
        "lyndon": [[1, 2], [3]],
        "rank": 4,
        "dimension": 4,
        "full_rank": True,
    }


@pytest.mark.parametrize("degree", ["1", "2", "3"])
def test_verify_all_stays_within_a_lowered_degree_cap(monkeypatch, degree):
    monkeypatch.setenv("WQSYM_MAX_DEGREE", degree)
    rc, out, err = run(("verify", "all", "--degree", degree, "--cases", "20"))
    assert (rc, out.count(": PASS")) == (0, 12), err


@pytest.mark.parametrize("argv", [("eval", "M[1]"), ("expand", "e", "1")], ids=" ".join)
def test_non_integer_degree_cap_exits_2(monkeypatch, argv):
    monkeypatch.setenv("WQSYM_MAX_DEGREE", "x")
    rc, out, err = run(argv)
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and "WQSYM_MAX_DEGREE" in err


@pytest.mark.parametrize("cap", ["-1", "7.0", "7_0", "²"])
def test_malformed_degree_cap_is_bad_input(monkeypatch, cap):
    # a negative cap is refused like a non-integer one, not as a cap hit
    monkeypatch.setenv("WQSYM_MAX_DEGREE", cap)
    assert run(("eval", "M[1]")) == (2, "", f"error: WQSYM_MAX_DEGREE must be a nonnegative integer, got {cap!r}\n")


def test_generators_run_up_to_the_degree_cap():
    rc, out, _ = run(("generators", "--degree", "7"))
    assert rc == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"weight {n}" for n in range(1, 8)]
    assert all(line.endswith("(full rank)") for line in lines)
    assert lines[-1].endswith("rank 64/64 (full rank)")
    rc, out, err = run(("generators", "--degree", "8"))
    assert (rc, out) == (4, "") and err.startswith("error: ")


@pytest.mark.parametrize("degree", range(4))
def test_verify_all_at_small_degrees(degree):
    for seed in range(4):
        argv = ("verify", "all", "--degree", str(degree), "--seed", str(seed), "--cases", "5")
        rc, out, err = run(argv)
        if degree == 0:
            # e1-kernel and generators check nothing at degree 0
            assert (rc, out) == (2, "") and err.startswith("error: ")
            continue
        assert rc == 0, out
        assert out.count(": PASS") == 12
        assert " 0 checks" not in out


@pytest.mark.parametrize(
    "name,index,build",
    [("e", i, eulerian_idempotent) for i in range(5)] + [("psi", k, adams) for k in (0, 1, 2, 3, 5)],
)
def test_streamed_expand_equals_the_built_series(name, index, build):
    for degree in range(7):
        argv = ("expand", name, str(index), "--degree", str(degree))
        built = build(index, degree)
        assert run(argv) == (0, f"{built}\n", "")
        assert run((*argv, "--format", "json")) == (0, f"{series_to_obj(built)}\n", "")


def test_expand_builds_no_series_and_fills_no_cache():
    cached = (series.adams, series.eulerian_idempotent, words._packed_words)
    for cache in cached:
        cache.cache_clear()
    assert run(("expand", "e", "1", "--degree", "6"))[0] == 0
    assert [cache.cache_info().currsize for cache in cached] == [0, 0, 0]


class _DigestSink:
    """A stdout that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())

    def flush(self):
        pass


@pytest.mark.parametrize(
    "fmt,digest",
    [
        ((), "fbb1363bf452fdc0b0a3d8cd9e04c60d698a4c14ebee47bd11031b8b23b250b9"),
        (("--format", "json"), "c2bffd03edc2fae736b9ffaf88b9a6dbd317e0b926430850b5319e8c1aa1a0e1"),
    ],
    ids=("text", "json"),
)
def test_expand_at_degree_8_under_a_raised_cap(monkeypatch, fmt, digest):
    # 545 835 words of degree 8; the digests were recorded when expand still
    # built the series, sorted it and printed it as one string
    monkeypatch.setenv("WQSYM_MAX_DEGREE", "8")
    sink = _DigestSink()
    with contextlib.redirect_stdout(sink):
        assert main(["expand", "e", "1", "--degree", "8", *fmt]) == 0
    assert sink.sha.hexdigest() == digest


@pytest.mark.parametrize(
    "argv,head",
    [
        # read 200 bytes of megabytes, as ``| head -c 200`` does: a write fails
        (("expand", "psi", "3", "--degree", "7", "--format", "json"), b'{"cutoff":7,"components":{"0":'),
        # closed before the first byte: the output sits in the buffer and the
        # flush fails, and would fail again at exit
        (("expand", "e", "1", "--degree", "3"), b""),
    ],
    ids=("partly-read", "never-read"),
)
def test_a_reader_that_closes_stdout_early_gets_no_traceback(argv, head):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as it is by default
    read_end, write_end = os.pipe()
    reader = open(read_end, "rb")
    if not head:
        reader.close()
    argv = [sys.executable, "-m", "wqsym.cli", *argv]
    proc = subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    try:
        if head:
            assert reader.read(200).startswith(head)
            reader.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        reader.close()
        proc.kill()
    assert "Traceback" not in err and "Error" not in err, err
    assert code == CLOSED_PIPE_EXIT
