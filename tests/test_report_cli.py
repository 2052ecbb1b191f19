import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatjac import report as rep
from fermatjac.cli import main
from fermatjac.curves import CurveFamily, CurveSpec
from fermatjac.decompose import IsogenyFactor, decompose_coarse, decompose_fine
from fermatjac.orbits import OrbitClass, make_context, orbit_partition

from helpers import factor_entry, parse, reference_rows, sweep_primes

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("p", (7, 11, 13))
def test_golden_decompose_json(capsys, p):
    code, out, _ = run_cli(capsys, "decompose", "--p", str(p), "--format", "json")
    assert code == 0
    assert out == (GOLDEN / f"decompose_p{p}.json").read_text()


@pytest.mark.parametrize("p", (7, 13))
def test_golden_verify_full_json(capsys, p):
    code, out, _ = run_cli(capsys, "verify", "--p", str(p), "--depth", "full", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / f"verify_p{p}_full.json").read_text()


def test_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "13", "--format", "json")
    assert code == 0
    report = parse(out)
    assert rep.serialize(report) == out
    assert report["schema_version"] == rep.SCHEMA_VERSION


def test_json_roundtrip_at_a_benchmark_prime(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "409", "--level", "both", "--format", "json")
    assert code == 0
    report = parse(out)
    assert rep.serialize(report) == out == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("p", sweep_primes(400) + [409, 1009])
def test_rows_are_written_as_their_reference_dicts(capsys, p):
    # the writer puts each orbit and factor down from its object; the dicts
    # the report once built for them (helpers.reference_rows) are its oracle
    ctx = make_context(p)
    reports = {("orbits",): rep.orbits_report(ctx)}
    for level in ("coarse", "fine", "both"):
        reports["decompose", "--level", level] = rep.decompose_report(ctx, level)
    for (command, *flags), report in reports.items():
        code, out, _ = run_cli(capsys, command, "--p", str(p), *flags, "--format", "json")
        assert code == 0
        assert out == json.dumps(reference_rows(report), indent=2, sort_keys=True) + "\n", (command, flags)


def test_json_goes_to_stdout_in_slices(monkeypatch):
    import io
    import sys

    from fermatjac import cli

    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    monkeypatch.setattr(cli, "WRITE_SLICE", 1000)
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["decompose", "--p", "61", "--format", "json"]) == 0
    document = rep.serialize(rep.decompose_report(make_context(61)))
    assert sys.stdout.getvalue() == document
    assert writes == [1000] * (len(document) // 1000) + [len(document) % 1000]


# Subclasses of the JSON types, which no report holds: the writer takes
# each value by its exact class and refuses these, though json would read
# each through its base, whatever the subclass overrides.
class Str(str):
    def __str__(self):
        return "overridden"


class Int(int):
    def __repr__(self):
        return "overridden"


class Float(float):
    def __repr__(self):
        return "overridden"


class Dict(dict):
    pass


class List(list):
    pass


# Every code point, lone surrogates too, with the characters json escapes
# drawn often: controls, '"', '\\', DEL, and one past the BMP.
CHARS = st.characters(exclude_categories=()) | st.sampled_from(['"', "\\", "\x7f", "\x00", "\n", "\x1f", "\U0001f600"])
TEXT = st.text(CHARS, max_size=12)


def _rows(p):
    ctx = make_context(p)
    coarse = decompose_coarse(ctx)
    return [*orbit_partition(ctx).orbits, *coarse.factors, *decompose_fine(coarse).factors]


# The row objects the writer puts down from their attributes, drawn from
# the decompositions at primes of both residues mod 3.
ALL_ROWS = [row for p in (5, 7, 11, 13, 31) for row in _rows(p)]
ROWS = st.sampled_from(ALL_ROWS)
# Lists the writer puts down with one writer in one join (all OrbitClass or
# all IsogenyFactor, repeats included) and mixed lists, rows among others.
ROW_LISTS = (
    st.lists(st.sampled_from([row for row in ALL_ROWS if isinstance(row, OrbitClass)]), min_size=1, max_size=6)
    | st.lists(st.sampled_from([row for row in ALL_ROWS if isinstance(row, IsogenyFactor)]), min_size=1, max_size=6)
    | st.lists(ROWS, min_size=2, max_size=6)
    | st.lists(ROWS | st.integers() | TEXT | st.none(), min_size=2, max_size=6)
)
# The values a report holds: str, int, bool and None, lists, tuples and
# str-keyed dicts of them, and the rows.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | TEXT
    | ROWS
    | ROW_LISTS
    | ROW_LISTS.map(tuple)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example({"big": [10**60, -(10**60), 0, -1], "flags": [True, False, None], "t": (1, "a", (False,))})
@example({"": [], "a": {}, "b": ((),), "c": [{"10": None, "2": True, "-3": "x"}]})
@example(["\ud800", "\udfff\U0010ffff", "\x7f\x08\x0c\r\t", 'say "a\\b"', "caf\xe9"])
@example([{"1": "a"}, {"true": "b"}, {"1.0": "c"}, {"null": "d"}])
@example({"orbits": _rows(7)[:2], "deep": [[{"factors": tuple(_rows(13)[-3:])}]], "row": _rows(5)[0]})
@example({"orbits": _rows(13)[:3], "factors": _rows(13)[3:] * 2, "mixed": [_rows(7)[0], _rows(7)[-1], [_rows(5)[0]], 1]})
def test_serialize_is_json_dumps(value):
    assert rep.serialize(value) == json.dumps(reference_rows(value), indent=2, sort_keys=True) + "\n"


ROW_PRIMES = sweep_primes(199) + [409, 1009, 100003]


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from(ROW_PRIMES),
    seed=st.integers(0, 10**6),
    multiplicity=st.integers(0, 10**6),
    dimension=st.integers(0, 10**9),
)
@example(p=7, seed=0, multiplicity=3, dimension=3)
@example(p=100003, seed=0, multiplicity=6, dimension=16667)
def test_factor_rows_are_json_dumps_of_their_reference_dicts(p, seed, multiplicity, dimension):
    # one template per curve family, C_1's with its model: every family,
    # and alpha = 1 (seed 0)
    ctx = make_context(p)
    curves = [CurveSpec(ctx, CurveFamily.P_GONAL, seed % (p - 2) + 1), CurveSpec(ctx, CurveFamily.P_GONAL, 1)]
    curves += [CurveSpec(ctx, CurveFamily.E_QUOTIENT, g) for g in ctx.gamma_pair or ()]
    factors = [IsogenyFactor(c, multiplicity, dimension) for c in curves]
    for value in (factors, {"a": [{"factors": factors[::-1]}], "b": factors[0]}):
        assert rep.serialize(value) == json.dumps(reference_rows(value), indent=2, sort_keys=True) + "\n"
    assert rep.serialize(factors) == json.dumps([factor_entry(f) for f in factors], indent=2, sort_keys=True) + "\n"


# (a value no report holds, the class the writer names refusing it): json
# refuses the first three too, and would write the rest
REFUSED = [
    ({"a": {1, 2}}, "set"),
    ([object()], "object"),
    ({"a": [1, {"b": object()}]}, "object"),
    (1.5, "float"),
    ({"x": [float("nan")]}, "float"),
    ([Int(7)], "Int"),
    ({"a": Str("b")}, "Str"),
    (Float(0.5), "Float"),
    ({"a": Dict()}, "Dict"),
    (List([1]), "List"),
    ({1: 0}, "int"),
    ({True: 0}, "bool"),
    ({None: 0}, "NoneType"),
    ({1.0: 0}, "float"),
    ({Str("k"): 0}, "Str"),
    ({"a": {"b": 1, "c": {2: 0}}}, "int"),
]


@pytest.mark.parametrize("value", REFUSED)
def test_serialize_refuses_what_json_refuses(value):
    value, cls = value
    if cls in ("set", "object"):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match=rf"(type|not) {cls}\b"):
        rep.serialize(value)


def test_text_and_json_factor_order_agree(capsys):
    _, json_out, _ = run_cli(capsys, "decompose", "--p", "13", "--format", "json")
    report = parse(json_out)
    _, text_out, _ = run_cli(capsys, "decompose", "--p", "13")
    for level in ("coarse", "fine"):
        entry = report["decompositions"][level]
        symbols = [f"{f['symbol']}^{f['multiplicity']}" for f in entry["factors"]]
        assert entry["product"] == "JF(13) ~ " + " x ".join(symbols)
        assert f"{level}: {entry['product']}" in text_out


def test_decompose_text_products():
    report = rep.decompose_report(make_context(7))
    text = rep.render_decompose_text(report)
    lines = text.splitlines()
    assert "coarse: JF(7) ~ JC(1)^3 x JC(2)^2" in lines
    assert "fine: JF(7) ~ JC(1)^3 x JE(2)^6" in lines
    assert "audit coarse: PASS" in lines
    assert "audit fine: PASS" in lines


def test_decompose_single_level(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "7", "--level", "coarse", "--format", "json")
    assert code == 0
    report = parse(out)
    assert list(report["decompositions"]) == ["coarse"]


def test_orbits_command(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--p", "7")
    assert code == 0
    assert "{1,3,5} size=3 special_one" in out
    assert "{2,4} size=2 gamma" in out

    code, out, _ = run_cli(capsys, "orbits", "--p", "11", "--format", "json")
    assert code == 0
    report = parse(out)
    assert [o["elements"] for o in report["orbits"]] == [[1, 5, 9], [2, 3, 4, 6, 7, 8]]
    assert report["gamma"] is None


def test_orbits_report_matches_decompose_report():
    orbits = rep.orbits_report(make_context(13))
    dec = rep.decompose_report(make_context(13))
    assert orbits["orbits"] == dec["orbits"]
    assert orbits["orbit_counts"] == dec["orbit_counts"]


def test_invalid_input_exit_code_2(capsys):
    for argv in (
        ["decompose", "--p", "9"],
        ["decompose", "--p", "3"],
        ["orbits", "--p", "-7"],
        ["verify", "--p", "100"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err


def test_measured_bounds_exit_code_2(capsys):
    from fermatjac.cli import SWEEP_MAX_TO
    from fermatjac.orbits import MAX_P, is_prime

    assert make_context(MAX_P).p == MAX_P
    over_max = next(q for q in range(MAX_P + 1, 2 * MAX_P) if is_prime(q))
    # verify has no cap of its own any more: MAX_P bounds every command
    for argv in (
        ["decompose", "--p", str(over_max)],
        ["orbits", "--p", str(over_max)],
        ["verify", "--p", str(over_max)],
        ["sweep", "--from", "5", "--to", str(SWEEP_MAX_TO + 1)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "error" in err


def test_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_verify_basic_p5(capsys):
    # exercises the no-gamma branch end to end
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--depth", "basic")
    assert code == 0
    assert "PASS orbit-partition-laws" in out
    assert "no gamma root" in out
    assert "all 8 checks passed" in out


def test_verify_full_p7_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "7", "--depth", "full", "--format", "json")
    assert code == 0
    report = parse(out)
    assert report["all_pass"] is True
    assert len(report["checks"]) == 12
    assert all(c["status"] == "PASS" for c in report["checks"])
    assert report["provenance"]["triple"]["c2"] == [0, 0, 3]


def test_verify_full_has_no_cap_below_max_p(capsys):
    # full depth is O(p), so MAX_P is its one bound: 1009, past the old
    # bound 997, runs like p = 37, with no flag
    from fermatjac import cli

    assert not hasattr(cli, "FULL_DEPTH_MAX_P")
    code, out, _ = run_cli(capsys, "verify", "--p", "1009", "--depth", "full")
    assert code == 0 and "all 12 checks passed (p=1009, depth=full)" in out
    code, out, _ = run_cli(capsys, "verify", "--p", "37", "--depth", "full")
    assert code == 0 and "all 12 checks passed (p=37, depth=full)" in out


def test_verify_basic_p19(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "19", "--depth", "basic")
    assert code == 0
    assert "2 generic" in out  # (19 - 7)/6 = 2


def test_sweep_small_range(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--from", "5", "--to", "11")
    assert code == 0
    assert "swept 3 primes: 3 PASS, 0 FAIL" in out


def test_sweep_row_matches_decompose(capsys):
    # 7 and 13 have a gamma root, whose factor the fine decomposition
    # refines; 11 has none, so there fine is coarse
    for p in (7, 11, 13):
        code, out, _ = run_cli(capsys, "sweep", "--from", str(p), "--to", str(p), "--format", "json")
        assert code == 0
        report = parse(out)
        assert report["total"] == 1 and report["pass_count"] == 1
        row = report["rows"][0]
        products = rep.decompose_report(make_context(p))["decompositions"]
        assert row["coarse"] == products["coarse"]["product"]
        assert row["fine"] == products["fine"]["product"]
        assert (row["fine"] != row["coarse"]) == make_context(p).has_gamma


def test_sweep_fail_row_names_its_check(capsys, monkeypatch):
    from fermatjac import cli
    from fermatjac.errors import CheckFailedError

    def fails_at_13(ctx, cache):
        if ctx.p == 13:
            raise CheckFailedError("p = 13: planted failure")
        return real(ctx, cache)

    name, real = cli.BASIC_CHECKS[-1]
    monkeypatch.setattr(cli, "BASIC_CHECKS", [*cli.BASIC_CHECKS[:-1], (name, fails_at_13)])
    code, out, _ = run_cli(capsys, "sweep", "--from", "11", "--to", "17", "--format", "json")
    assert code == 4
    report = parse(out)
    assert (report["total"], report["pass_count"]) == (3, 2)
    row = report["rows"][1]
    assert row == {
        "p": 13,
        "residue_mod_3": 1,
        "status": "FAIL",
        "check": name,
        "detail": "p = 13: planted failure",
        "code": "CHECK_FAILED",
    }
    code, out, _ = run_cli(capsys, "sweep", "--from", "11", "--to", "17")
    assert code == 4
    assert f"\np=  13 FAIL  {name}: p = 13: planted failure\n" in out
    assert out.endswith("swept 3 primes: 2 PASS, 1 FAIL\n")


def test_sweep_bad_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--from", "11", "--to", "5")
    assert code == 2 and err


def test_verify_builds_the_decomposition_once(capsys, monkeypatch):
    from fermatjac import decompose as decompose_module

    calls = []
    real = decompose_module.decompose_coarse

    def counting(ctx, *partition):
        calls.append(ctx.p)
        return real(ctx, *partition)

    monkeypatch.setattr(decompose_module, "decompose_coarse", counting)
    code, _, _ = run_cli(capsys, "verify", "--p", "13")
    assert code == 0
    assert calls == [13]


def test_audit_failure_exit_code_3(capsys, monkeypatch):
    from fermatjac import report as report_module
    from fermatjac.errors import AuditFailError

    def broken(ctx, *partition):
        raise AuditFailError("forced for the exit-code contract")

    monkeypatch.setattr(report_module, "decompose_coarse", broken)
    code, _, err = run_cli(capsys, "decompose", "--p", "7")
    assert code == 3
    assert "audit failure" in err


def test_verify_failure_exit_code_4(capsys, monkeypatch):
    from fermatjac import cli as cli_module

    def failing(ctx, cache):
        raise AssertionError("forced check failure")

    monkeypatch.setattr(
        cli_module,
        "BASIC_CHECKS",
        [("forced-failure", failing)] + list(cli_module.BASIC_CHECKS)[1:],
    )
    code, out, err = run_cli(capsys, "verify", "--p", "7")
    assert code == 4
    assert "FAIL forced-failure" in out
    assert "forced-failure" in err


def test_verify_json_includes_blocks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "7", "--depth", "full", "--format", "json")
    assert code == 0
    report = parse(out)
    assert report["monomial_maps"]["T"] == "(x, w^1*y)"
    assert report["monomial_maps"]["R"] == "(-(x-1)^-1, -x^-1*(x-1)^-1*y^4)"
    assert report["monomial_maps"]["epsilon"]["rule_matches"] is True
    assert report["certificates"]["pairing_deck_vs_homology"] == 6
    assert report["certificates"]["pairing_trivial_vs_homology"] == 0


def test_factor_entry_hyperelliptic_metadata(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "7", "--format", "json")
    report = parse(out)
    c1 = report["decompositions"]["coarse"]["factors"][0]
    assert c1["alpha"] == 1
    assert c1["hyperelliptic_model"] == "w^2 = u^7 - 1"
    c2 = report["decompositions"]["coarse"]["factors"][1]
    assert "hyperelliptic_model" not in c2


def _count_calls(monkeypatch, module, name):
    """Record the positional arguments of each call of module.name,
    wherever the package bound it."""
    import sys

    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fermatjac" or mod_name.startswith("fermatjac."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_verify_full_builds_classes_and_fix_table_once(capsys, monkeypatch):
    from fermatjac import genus as genus_module
    from fermatjac import groups as groups_module

    # the classes come from their rule: no orbit walk
    walks = _count_calls(monkeypatch, groups_module, "conjugacy_classes")
    tables = _count_calls(monkeypatch, genus_module, "fermat_full_fix_table")
    built = []
    init = groups_module.ClassData.__init__

    def counting_init(self, group):
        built.append(group)
        init(self, group)

    monkeypatch.setattr(groups_module.ClassData, "__init__", counting_init)
    code, _, _ = run_cli(capsys, "verify", "--p", "13", "--depth", "full")
    assert code == 0
    assert len(built) == 1 and len(tables) == 1
    assert walks == []


@pytest.mark.parametrize("p, subgroups, deck", ((7, 8, 2), (13, 9, 3)))
def test_verify_full_takes_each_deck_line_once_per_class(capsys, monkeypatch, p, subgroups, deck):
    # both oracles run on one cyclic subgroup per class and on H, and the
    # certificates pair hom with one H_j per deck class, one per exponent
    # orbit, each a line read by its line
    from fermatjac import certificates as certificates_module
    from fermatjac import genus as genus_module
    from fermatjac.orbits import orbit_partition

    cosets = _count_calls(monkeypatch, genus_module, "coset_genus")
    characters = _count_calls(monkeypatch, certificates_module, "perm_pairing")
    code, _, _ = run_cli(capsys, "verify", "--p", str(p), "--depth", "full")
    assert code == 0
    assert len(cosets) == subgroups and cosets[0][0].order == 1
    assert len(characters) == deck == len(orbit_partition(make_context(p)).orbits)
    assert all(k.order == p and all(map(k.group.is_translation, k.generators)) for (k, _fn) in characters)


def test_verify_full_builds_no_deck_joins(capsys, monkeypatch):
    # every join H_i v H_j is the plane H (determinant j - i) and every
    # join of two distinct K_i the whole p-gonal group (Lagrange), so no
    # join is built, and the K_i are held by their generators: nothing
    # is closed
    from fermatjac import groups as groups_module

    closures = _count_calls(monkeypatch, groups_module, "subgroup_closure")
    code, _, _ = run_cli(capsys, "verify", "--p", "13", "--depth", "full")
    assert code == 0
    assert closures == []


def _coset_genus_off_by_one(mp):
    # off by one on every subgroup but the trivial one, which the
    # dual-oracle check takes first
    from fermatjac import genus as genus_module

    real = genus_module.coset_genus
    mp.setattr(genus_module, "coset_genus", lambda k, triple, data: real(k, triple, data) + (k.order > 1))


def test_oracle_disagreement_is_a_typed_failure(capsys, monkeypatch):
    _coset_genus_off_by_one(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--p", "7", "--depth", "full", "--format", "json")
    assert code == 4
    assert "dual-oracle-genus" in err
    failed = parse(out)["checks"][-1]
    assert failed["name"] == "dual-oracle-genus" and failed["status"] == "FAIL"
    assert failed["code"] == "ORACLE_DISAGREEMENT"
    assert failed["detail"].startswith("p = 7, the subgroup of order ")
    assert "Riemann-Hurwitz genus" in failed["detail"] and "coset genus" in failed["detail"]


def test_oracle_disagreement_fails_under_python_O(under_O):
    # Under -O every assert is stripped; the dual-oracle check must still refuse.
    run = under_O["coset-genus-off-by-one"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL dual-oracle-genus: p = 7, the subgroup of order" in run.stdout
    assert "verification failed at check: dual-oracle-genus" in run.stderr


def _S3_leaves_the_orbits(mp):
    # U and V both a -> a + 1 mod p: an S3 action that leaves the orbits
    from fermatjac import curves
    from fermatjac.curves import MoebiusLabel

    for label in (MoebiusLabel.CYC, MoebiusLabel.ONE_MINUS):
        mp.setitem(curves.MOEBIUS_TRANSPORT, label, lambda a, inv, p: (a + 1) % p)


def test_basic_check_fails(capsys, monkeypatch):
    _S3_leaves_the_orbits(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--p", "7")
    assert code == 4
    assert "FAIL orbit-partition-laws: p = 7: U(1) = 2 leaves the orbit" in out
    assert err == "verification failed at check: orbit-partition-laws\n"


def test_basic_check_fails_under_python_O(under_O):
    # orbit-partition-laws must refuse even with every assert stripped
    run = under_O["S3-leaves-the-orbits"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL orbit-partition-laws: p = 7: U(1) = 2 leaves the orbit" in run.stdout
    assert "verification failed at check: orbit-partition-laws" in run.stderr


@pytest.mark.parametrize("columns", ("60", None))
@pytest.mark.parametrize("command", ((), ("orbits",), ("decompose",), ("verify",), ("sweep",)))
def test_help_matches_the_stock_formatter(capsys, monkeypatch, columns, command):
    # every parser that build_parser makes formats its help with argparse's
    # own HelpFormatter, which wraps to the terminal width less 2
    import argparse
    import shutil

    from fermatjac import cli

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    if command:
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[command[0]]
    assert parser.formatter_class is argparse.HelpFormatter
    with pytest.raises(SystemExit):
        main([*command, "--help"])
    out = capsys.readouterr().out
    assert out == parser.format_help()
    assert "usage: fermatjac" in out
    assert max(map(len, out.splitlines())) <= shutil.get_terminal_size().columns - 2


def test_cli_imports_no_shutil():
    # argparse's stock formatter imports shutil (and zlib, bz2, lzma) to
    # read the terminal width, and argparse itself brings gettext, locale
    # and warnings; a well-formed command line never builds the parser,
    # and pairings are integers, not Fractions (fractions brings decimal).
    # Reports are written without json, constants, counts and caches need
    # no enum, collections or functools, and gcd is a three-line Euclid, so
    # no math either.  -S keeps site-packages from importing any of them.
    # One fresh process per command line, in one test so that its id stays put.
    import subprocess
    import sys

    import fermatjac

    src = str(Path(fermatjac.__file__).resolve().parents[1])
    unwanted = (
        "shutil", "bz2", "lzma", "zlib", "argparse", "gettext", "locale", "warnings", "fractions", "decimal",
        "json", "re", "enum", "functools", "collections", "types", "math",
    )
    for argv in (
        ["decompose", "--p", "7"],
        ["verify", "--p", "13", "--depth", "full", "--format", "json"],
        ["decompose", "--p", "397", "--level", "both", "--format", "json"],
        ["sweep", "--from", "5", "--to", "31", "--format", "json"],
        ["orbits", "--p", "13", "--format", "json"],
    ):
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from fermatjac import cli\n"
            f"code = cli.main({argv!r})\n"
            f"print(sorted(m for m in {unwanted!r} if m in sys.modules))\n"
            "sys.exit(code)\n"
        )
        run = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]", argv


CLOSED_STDOUT_COMMANDS = (
    ("decompose", "--p", "13"),
    ("decompose", "--p", "13", "--format", "json"),
    ("verify", "--p", "13"),
    ("verify", "--p", "13", "--format", "json"),
    ("sweep", "--from", "5", "--to", "61"),
    ("sweep", "--from", "5", "--to", "61", "--format", "json"),
)


@pytest.mark.parametrize("argv", CLOSED_STDOUT_COMMANDS, ids=" ".join)
def test_a_closed_stdout_exits_5_without_a_traceback(argv):
    # the read end of the child's stdout is closed before the child starts,
    # so its output meets a closed pipe however short it is: exit 5, the
    # documented code, and nothing on stderr
    import os
    import subprocess
    import sys

    import fermatjac

    src = str(Path(fermatjac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "fermatjac.cli", *argv], stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120
        )
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (5, "")


def test_the_peak_script_fails_a_command_above_its_limit():
    # tests/peak.py, which CI runs on each bounded command: the command's
    # stdout and exit code, one line on stderr with the peak, and exit 1
    # when the command passed but its VmHWM is above the limit
    import os
    import subprocess
    import sys

    import fermatjac

    src = str(Path(fermatjac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = str(Path(__file__).resolve().parent / "peak.py")
    runs = {
        limit: subprocess.run(
            [sys.executable, script, limit, "decompose", "--p", "13"], capture_output=True, text=True, env=env, timeout=120
        )
        for limit in ("1000", "1")
    }
    for limit, code in (("1000", 0), ("1", 1)):
        run = runs[limit]
        assert run.returncode == code, run.stderr
        assert run.stdout.startswith("p = 13 (1 mod 3)\n")
        assert run.stderr.startswith("exit 0, VmHWM ") and run.stderr.endswith(f" MB, limit {limit} MB\n")


# -- the python -O twins' cases, run in one child (conftest.py's under_O) -----

UNDER_O = {
    "coset-genus-off-by-one": (_coset_genus_off_by_one, [["verify", "--p", "7", "--depth", "full"]]),
    "S3-leaves-the-orbits": (_S3_leaves_the_orbits, [["verify", "--p", "7"]]),
}
