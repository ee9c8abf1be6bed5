"""Command-line behavior: outputs, formats, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilb
from hilb.cli import build_parser, main
from hilb.surface_ring import SurfaceRing, preset, save_ring


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_show_d4(capsys):
    code, out, _ = run(capsys, "ring", "show", "--preset", "d4")
    assert code == 0
    assert "mode=open" in out
    assert "6 basis elements" in out
    assert "validation: pass" in out


def test_ring_show_k3_json(capsys):
    code, out, _ = run(capsys, "ring", "show", "--preset", "k3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "compact"
    assert len(payload["basis"]) == 24
    assert payload["validation"] == "pass"


def test_ring_show_bad_ring_exits_2(tmp_path, capsys):
    ring = preset("d4")
    # break graded commutativity of a valid document by redefining one product
    text = save_ring(ring) + "mul E1 E2 = 1*S\n"
    path = tmp_path / "bad.ring"
    path.write_text(text)
    code, _, err = run(capsys, "ring", "show", "--ring", str(path))
    assert code == 2
    assert "validation" in err or "error" in err


@pytest.mark.parametrize("name", ["a@1", "a,b", "a;b"])
def test_ring_show_basis_name_the_element_spec_splits_exits_2(tmp_path, capsys, name):
    # `hilb mul` could not name such an element: 'a@1;id' reads as a@{1}
    path = tmp_path / "spec.ring"
    path.write_text(
        "ring name=r mode=open\n"
        "basis 1 degree=0 perversity=0\n"
        f"basis {name} degree=2 perversity=2\n"
        "unit 1\n"
        "mul 1 1 = 1*1\n"
        f"mul 1 {name} = 1*{name}\n"
        f"mul {name} 1 = 1*{name}\n"
        "euler =\n"
    )
    code, out, err = run(capsys, "ring", "show", "--ring", str(path))
    assert code == 2
    assert out == ""
    assert f"basis name {name!r} invalid" in err


def test_mul_d4(capsys):
    code, out, _ = run(
        capsys, "mul", "--preset", "d4", "-n", "2", "1;(1 2)", "1;(1 2)"
    )
    assert code == 0
    assert "-1 * [E1@{1} ⊗ E1@{2}] * id" in out
    assert "perversity: 2" in out


def test_mul_k3_euler_branch(capsys):
    code, out, _ = run(
        capsys, "mul", "--preset", "k3", "-n", "3", "1;(1 2 3)", "1;(1 2 3)"
    )
    assert code == 0
    assert "24 * [pt@{1,2,3}] * (1 3 2)" in out


def test_mul_unit_identity(capsys):
    code, out, _ = run(
        capsys, "mul", "--preset", "d4", "-n", "2", "E1@1;(1 2)", "1,1;id"
    )
    assert code == 0
    assert "1 * [E1@{1,2}] * (1 2)" in out
    # the @ form defaults unassigned orbits to the unit
    code, out2, _ = run(
        capsys, "mul", "--preset", "d4", "-n", "2", "E1@1;(1 2)", "1@1;id"
    )
    assert code == 0
    assert out2 == out


def test_mul_bad_spec_exits_2(capsys):
    code, _, err = run(capsys, "mul", "--preset", "d4", "-n", "2", "nope", "1;id")
    assert code == 2
    code, _, err = run(capsys, "mul", "--preset", "a0", "-n", "2", "a@1,b@1;id", "b;(1 2)")
    assert code == 2
    assert "anchor 1 given twice" in err


def test_verify_monodromy(capsys):
    code, out, _ = run(capsys, "verify", "monodromy")
    assert code == 0
    assert "[4, 3, 2, 1]" in out
    assert "triangle_determinant = 4" in out


def test_verify_multiplicativity_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "multiplicativity", "--preset", "e6", "-n", "2"
    )
    assert code == 0
    assert "suite multiplicativity: pass" in out


def test_verify_multiplicativity_fail_exits_1(tmp_path, capsys):
    ring = preset("d4")
    s = ring.index("S")
    corrupted = SurfaceRing(
        name="corrupted",
        mode="open",
        names=ring.names,
        degrees=ring.degrees,
        perversities=ring.perversities,
        unit=ring.unit,
        mul={
            (i, j): dict(ring.mul_basis(i, j))
            for i in range(ring.size)
            for j in range(ring.size)
        },
        diag2={0: {(s, s): 1}},
        euler={},
    )
    path = tmp_path / "corrupted.ring"
    path.write_text(save_ring(corrupted))
    code, out, _ = run(
        capsys, "verify", "multiplicativity", "--ring", str(path), "-n", "2"
    )
    assert code == 1
    assert "fail" in out


def test_verify_diagonal_json(capsys):
    code, out, _ = run(
        capsys, "verify", "diagonal", "--preset", "a0", "--format", "json", "-n", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["suite"] == "diagonal-bound"


def test_verify_associativity_json_counts_local_problems(capsys):
    # one local problem per conjugacy class of transitive triples on 1, 2, 3 points
    code, out, _ = run(
        capsys, "verify", "associativity", "--preset", "d4", "-n", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["info"]["local_suites"] == 49


def test_verify_diagonal_echoes_n_without_seed(capsys):
    code, out, _ = run(
        capsys, "verify", "diagonal", "--preset", "k3", "-n", "4", "--format", "json"
    )
    assert code == 0
    info = json.loads(out)["info"]
    assert info == {"n": 4, "n_max": 4, "ring": "k3"}


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "diagonal", "--preset", "a0", "--seed", "1"),
        ("verify", "diagonal", "--preset", "a0", "--limit", "10"),
        ("verify", "associativity", "--preset", "d4", "-n", "2", "--jobs", "2"),
        ("verify", "equivariance", "--preset", "d4", "-n", "2", "--jobs", "2"),
        ("verify", "multiplicativity", "--preset", "d4", "-n", "2", "--jobs", "2"),
        ("verify", "monodromy", "--seed", "1"),
        ("verify", "monodromy", "--preset", "d4"),
        ("verify", "multiplicativity", "--preset", "d4", "-n", "2", "--limit", "10"),
        ("verify", "multiplicativity", "--preset", "d4", "-n", "2", "--seed", "1"),
        ("verify", "associativity", "--preset", "d4", "-n", "2", "--limit", "10"),
        ("verify", "associativity", "--preset", "d4", "-n", "2", "--seed", "1"),
        ("verify", "equivariance", "--preset", "d4", "-n", "2", "--limit", "10"),
        ("verify", "equivariance", "--preset", "d4", "-n", "2", "--seed", "1"),
    ],
)
def test_verify_rejects_flags_the_suite_never_reads(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_verify_requires_ring_source(capsys):
    code, _, err = run(capsys, "verify", "multiplicativity")
    assert code == 2


def test_series_closed(capsys):
    code, out, _ = run(
        capsys, "series", "closed", "--case", "dynkin4", "--s-bound", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "series s_bound=2"
    assert "4/1 1 1 2" in lines  # 4 q t^2 at s^1


def test_series_refined_matches_closed(tmp_path, capsys):
    code, closed_text, _ = run(
        capsys, "series", "closed", "--case", "dynkin4", "--s-bound", "3"
    )
    assert code == 0
    code, refined_text, _ = run(
        capsys, "series", "refined", "--preset", "d4", "--s-bound", "3"
    )
    assert code == 0
    a = tmp_path / "a.series"
    b = tmp_path / "b.series"
    a.write_text(closed_text)
    b.write_text(refined_text)
    code, out, _ = run(capsys, "series", "compare", str(a), str(b), "--up-to", "3")
    assert code == 0
    assert "equal" in out


def test_series_compare_reports_first_difference(tmp_path, capsys):
    _, a_text, _ = run(capsys, "series", "closed", "--case", "dynkin4", "--s-bound", "1")
    _, b_text, _ = run(capsys, "series", "closed", "--case", "dynkin6", "--s-bound", "1")
    a = tmp_path / "a.series"
    b = tmp_path / "b.series"
    a.write_text(a_text)
    b.write_text(b_text)
    code, out, _ = run(capsys, "series", "compare", str(a), str(b), "--up-to", "1")
    assert code == 1
    assert "s^1 q^1 t^2" in out
    assert "4 vs 6" in out


def test_series_compare_zero_denominator_exits_2(tmp_path, capsys):
    # a malformed file is a usage error (2), not a verdict of "unequal" (1)
    _, one_text, _ = run(capsys, "series", "closed", "--case", "dynkin4", "--s-bound", "1")
    z = tmp_path / "z.series"
    o = tmp_path / "o.series"
    z.write_text("series s_bound=1\n1/0 0 0 0\n")
    o.write_text(one_text)
    code, _, err = run(capsys, "series", "compare", str(z), str(o), "--up-to", "1")
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "show", "--ring", "{mul_without_equals}"),
        ("ring", "show", "--ring", "{directory}"),
        ("ring", "show", "--ring", "{not_utf8}"),
        ("ring", "show", "--ring", "{missing}"),
        ("series", "compare", "{directory}", "{directory}", "--up-to", "1"),
        ("series", "bruteforce", "--preset", "a0", "-n", "-1"),
        ("verify", "diagonal", "--preset", "a0", "-n", "-3"),
        # a limit below 1 once sent exhaustive suites to sampling, and
        # --up-to -1 once reported "equal through s^-1"
        ("series", "bruteforce", "--preset", "a0", "-n", "1", "--limit", "-5"),
        ("series", "bruteforce", "--preset", "a0", "-n", "2", "--limit", "0"),
        ("series", "bruteforce", "--preset", "a0", "-n", "1", "--limit", "0"),
        ("series", "closed", "--case", "dynkin4", "--s-bound", "-1"),
        ("series", "refined", "--preset", "d4", "--s-bound", "-1"),
        ("series", "compare", "{series}", "{series}", "--up-to", "-1"),
        # a repeated orbit anchor once let the last factor win; anchors take
        # decimal digits only, like -n
        ("mul", "--preset", "a0", "-n", "2", "a@1,b@1;id", "b;(1 2)"),
        ("mul", "--preset", "a0", "-n", "2", "a@1_0;id", "b;(1 2)"),
        ("mul", "--preset", "a0", "-n", "2", "a@-0;id", "b;(1 2)"),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    paths = {
        "mul_without_equals": tmp_path / "mul.ring",
        "directory": tmp_path,
        "not_utf8": tmp_path / "latin1.ring",
        "missing": tmp_path / "missing.ring",
        "series": tmp_path / "one.series",
    }
    paths["series"].write_text("series s_bound=1\n1/1 0 0 0\n")
    paths["mul_without_equals"].write_text(save_ring(preset("a0")) + "mul 1 a\n")
    paths["not_utf8"].write_bytes(b"ring name=\xe9 mode=open\n")
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert "error:" in err


def test_every_integer_flag_has_a_checked_type():
    def actions(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)
            else:
                yield action

    typed = {}
    for action in actions(build_parser()):
        for option in action.option_strings:
            typed.setdefault(action.type, set()).add(option)
    assert int not in typed
    assert {"-n", "--limit", "--s-bound", "--up-to"} <= set().union(
        *(options for kind, options in typed.items() if kind not in (None, int))
    )


def test_series_bruteforce_matches_closed_coefficient(capsys):
    code, out, _ = run(capsys, "series", "bruteforce", "--preset", "a0", "-n", "3")
    assert code == 0
    from hilb.exact_poly import from_text
    from hilb.generating_series import SeriesSpec, closed_form

    series = from_text(out)
    expected = closed_form(SeriesSpec.parse("a0", 3)).coefficient_of_s(3)
    assert series.coefficient_of_s(3) == expected


def test_series_bruteforce_e6_n6_runs_at_the_default_limit(capsys):
    # the gate prices the sorted-tuple enumeration (7,704 tuples), not the
    # 8^6 * 6! scan of every tuple against every slot move
    code, out, _ = run(capsys, "series", "bruteforce", "--preset", "e6", "-n", "6")
    assert code == 0
    from hilb.exact_poly import from_text
    from hilb.generating_series import SeriesSpec, closed_form

    expected = closed_form(SeriesSpec.parse("dynkin6", 6)).coefficient_of_s(6)
    assert from_text(out).coefficient_of_s(6) == expected


def test_series_closed_rejects_seed_flag(capsys):
    # series closed reads no seed, so the flag is not accepted
    code, _, err = run(
        capsys, "series", "closed", "--case", "dynkin4", "--s-bound", "1", "--seed", "1"
    )
    assert code == 2
    assert "--seed" in err


def test_series_unknown_case_exits_2(capsys):
    code, _, err = run(capsys, "series", "closed", "--case", "dynkin5", "--s-bound", "2")
    assert code == 2


def test_determinism_byte_identical(capsys):
    args = ("verify", "multiplicativity", "--preset", "d4", "-n", "2", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_resource_error_exits_3(capsys):
    code, _, err = run(
        capsys, "series", "bruteforce", "--preset", "k3", "-n", "3", "--limit", "10"
    )
    assert code == 3
    assert "resource" in err
    # the orbit count lists the classes of S_n only up to n = 8
    code, out, err = run(capsys, "series", "bruteforce", "--preset", "a0", "-n", "9")
    assert (code, out) == (3, "")
    assert "resource" in err
    # multiplicativity has no cost gate: enumerate_sn refuses S_9 before any
    # pair is checked
    code, out, err = run(capsys, "verify", "multiplicativity", "--preset", "d4", "-n", "9")
    assert (code, out) == (3, "")
    assert "resource" in err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_2_without_traceback(unbuffered):
    # stdout is a pipe whose read end is already closed, as when the report
    # is piped into `head` or `true`; a buffered stdout meets the closed pipe
    # only when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(hilb.__file__).parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hilb.cli", "verify", "multiplicativity",
             "--preset", "d4", "-n", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
