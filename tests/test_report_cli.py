from pathlib import Path

import pytest

from fermatjac import report as rep
from fermatjac.cli import main
from fermatjac.orbits import make_context

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
    report = rep.parse(out)
    assert rep.serialize(report) == out
    assert report["schema_version"] == rep.SCHEMA_VERSION


def test_text_and_json_factor_order_agree(capsys):
    _, json_out, _ = run_cli(capsys, "decompose", "--p", "13", "--format", "json")
    report = rep.parse(json_out)
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
    report = rep.parse(out)
    assert list(report["decompositions"]) == ["coarse"]


def test_orbits_command(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--p", "7")
    assert code == 0
    assert "{1,3,5} size=3 special_one" in out
    assert "{2,4} size=2 gamma" in out

    code, out, _ = run_cli(capsys, "orbits", "--p", "11", "--format", "json")
    assert code == 0
    report = rep.parse(out)
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
    report = rep.parse(out)
    assert report["all_pass"] is True
    assert len(report["checks"]) == 12
    assert all(c["status"] == "PASS" for c in report["checks"])
    assert report["provenance"]["triple"]["c2"] == [0, 0, 3]


def test_verify_full_cap(capsys, monkeypatch):
    # FULL_DEPTH_MAX_P = 997 is the one bound of full depth: the next
    # prime, 1009, is refused before any class is built, and p = 37 runs
    # with no flag
    from fermatjac import groups as groups_module
    from fermatjac.cli import FULL_DEPTH_MAX_P

    def refuse(self, group):
        raise AssertionError("ClassData was built")

    monkeypatch.setattr(groups_module.ClassData, "__init__", refuse)
    code, out, err = run_cli(capsys, "verify", "--p", "1009", "--depth", "full")
    assert FULL_DEPTH_MAX_P == 997
    assert code == 2 and out == ""
    assert err == "error: p = 1009 exceeds the full-depth bound 997\n"
    monkeypatch.undo()
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
    code, out, _ = run_cli(capsys, "sweep", "--from", "7", "--to", "7", "--format", "json")
    assert code == 0
    report = rep.parse(out)
    assert report["total"] == 1 and report["pass_count"] == 1
    row = report["rows"][0]
    dec_report = rep.decompose_report(make_context(7))
    assert row["coarse"] == dec_report["decompositions"]["coarse"]["product"]
    assert row["fine"] == dec_report["decompositions"]["fine"]["product"]


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
    report = rep.parse(out)
    assert report["monomial_maps"]["T"] == "(x, w^1*y)"
    assert report["monomial_maps"]["R"] == "(-(x-1)^-1, -x^-1*(x-1)^-1*y^4)"
    assert report["monomial_maps"]["epsilon"]["rule_matches"] is True
    assert report["certificates"]["pairing_deck_vs_homology"] == 6
    assert report["certificates"]["pairing_trivial_vs_homology"] == 0


def test_factor_entry_hyperelliptic_metadata(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "7", "--format", "json")
    report = rep.parse(out)
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
    # both oracles run on one cyclic subgroup per class and on H (the
    # trivial subgroup once more in validate_triple), and the certificates
    # pair hom with one H_j per deck class, one per exponent orbit
    from fermatjac import certificates as certificates_module
    from fermatjac import genus as genus_module
    from fermatjac.orbits import orbit_partition

    cosets = _count_calls(monkeypatch, genus_module, "coset_genus")
    characters = _count_calls(monkeypatch, certificates_module, "induced_perm_character")
    code, _, _ = run_cli(capsys, "verify", "--p", str(p), "--depth", "full")
    assert code == 0
    assert len(cosets) == subgroups + 1 and cosets[0][0].order == 1
    assert len(characters) == deck == len(orbit_partition(make_context(p)).orbits)
    assert all(k.order == p and k.is_translation_subgroup for (k, _data) in characters)


def test_verify_full_builds_no_deck_joins(capsys, monkeypatch):
    # every join H_i v H_j is the plane H (determinant j - i) and every
    # join of two distinct K_i the whole p-gonal group (Lagrange), so no
    # join is built: the only closures are the three cyclic K_i
    from fermatjac import groups as groups_module

    closures = _count_calls(monkeypatch, groups_module, "subgroup_closure")
    code, _, _ = run_cli(capsys, "verify", "--p", "13", "--depth", "full")
    assert code == 0
    assert [len(gens) for (_group, gens) in closures] == [1, 1, 1]


def test_oracle_disagreement_is_a_typed_failure(capsys, monkeypatch):
    from fermatjac import genus as genus_module

    real = genus_module.coset_genus
    # off by one on every subgroup but the trivial one, which the
    # generating-triple check uses
    monkeypatch.setattr(genus_module, "coset_genus", lambda k, triple, data: real(k, triple, data) + (k.order > 1))
    code, out, err = run_cli(capsys, "verify", "--p", "7", "--depth", "full", "--format", "json")
    assert code == 4
    assert "dual-oracle-genus" in err
    failed = rep.parse(out)["checks"][-1]
    assert failed["name"] == "dual-oracle-genus" and failed["status"] == "FAIL"
    assert failed["code"] == "ORACLE_DISAGREEMENT"
    assert failed["detail"].startswith("p = 7, the subgroup of order ")
    assert "Riemann-Hurwitz genus" in failed["detail"] and "coset genus" in failed["detail"]


def test_oracle_disagreement_fails_under_python_O():
    # Under -O every assert is stripped; the dual-oracle check must still refuse.
    import os
    import subprocess
    import sys

    import fermatjac

    script = (
        "import sys\n"
        "from fermatjac import cli, genus\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "real = genus.coset_genus\n"
        "genus.coset_genus = lambda k, triple, data: real(k, triple, data) + (k.order > 1)\n"
        "sys.exit(cli.main(['verify', '--p', '7', '--depth', 'full']))\n"
    )
    src = str(Path(fermatjac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL dual-oracle-genus: p = 7, the subgroup of order" in run.stdout
    assert "verification failed at check: dual-oracle-genus" in run.stderr


def test_basic_check_fails_under_python_O():
    # an S3 action that leaves the orbits: orbit-partition-laws must refuse
    # even with every assert stripped
    import os
    import subprocess
    import sys

    import fermatjac

    script = (
        "import sys\n"
        "from fermatjac import cli\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "cli.s3_apply = lambda name, a, ctx: (a + 1) % ctx.p\n"
        "sys.exit(cli.main(['verify', '--p', '7']))\n"
    )
    src = str(Path(fermatjac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
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
    # -S keeps site-packages from importing any of them.  One fresh
    # process per command line, in one test so that its id stays put.
    import subprocess
    import sys

    import fermatjac

    src = str(Path(fermatjac.__file__).resolve().parents[1])
    unwanted = ("shutil", "bz2", "lzma", "zlib", "argparse", "gettext", "locale", "warnings", "fractions", "decimal")
    for argv in (["decompose", "--p", "7"], ["verify", "--p", "13", "--depth", "full", "--format", "json"]):
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
