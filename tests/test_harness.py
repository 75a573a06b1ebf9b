import inspect
import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees.campaign import CampaignConfig, run_campaign
from embtrees import cli
from embtrees.cli import main
from embtrees.serialize import SeriesCache, cache_key, export_series, import_series
from embtrees.series import Series
from embtrees.steps import parse_step_set

series_strategy = st.lists(
    st.fractions(min_value=-99, max_value=99, max_denominator=50),
    min_size=1,
    max_size=14,
).map(Series)


@settings(max_examples=100, deadline=None)
@given(series_strategy)
def test_export_import_roundtrip(series):
    for fmt in ("json", "csv"):
        assert import_series(export_series(series, fmt), fmt) == series


def test_export_json_shape():
    payload = json.loads(export_series(Series([1, 1, 2, 5, 14], 5), "json"))
    assert payload == {"order": 5, "coeffs": ["1", "1", "2", "5", "14"]}
    mixed = json.loads(export_series(Series([Q(1, 2), 3], 2), "json"))
    assert mixed["coeffs"] == ["1/2", "3"]


def test_export_csv_shape():
    text = export_series(Series([Q(1, 2), 3], 2), "csv")
    assert text.splitlines() == ["n,numerator,denominator", "0,1,2", "1,3,1"]


def test_cache_roundtrip_and_miss(tmp_path):
    cache = SeriesCache(tmp_path)
    key = cache_key("paths", "-1:1,1:1", 0, 12)
    assert cache.get(key, 5) is None  # cold cache is a miss, not an error
    series = Series([1, 1, 2, 3, 6], 5)
    cache.put(key, export_series(series))
    assert import_series(cache.get(key, 5)) == series
    assert cache.get(cache_key("other"), 5) is None


def test_cache_keys_are_canonical():
    assert cache_key("a", 1, Q(1, 2)) == cache_key("a", 1, Q(1, 2))
    assert cache_key("a", 1) != cache_key("a", 2)


def test_campaign_suite_filter_runs_only_requested():
    report = run_campaign(CampaignConfig(suites=("exact-arith",)))
    assert report.results
    assert all(r.id.startswith("exact-arith/") for r in report.results)
    assert report.ok


def test_campaign_conjecture_status_policy():
    report = run_campaign(CampaignConfig(suites=("binary/conjectured-form",)))
    statuses = {r.id: r.status for r in report.results}
    assert statuses == {"binary/conjectured-form": "conjecture-consistent"}
    assert report.ok  # conjecture-consistent does not fail the campaign


class TestCli:
    def test_trees(self, capsys):
        assert main(["trees", "--w1", "1", "--order", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"] == ["1", "1", "2", "5", "14", "42", "132"]

    def test_trees_closed_matches_recurrence(self, capsys):
        main(["trees", "--w2", "1", "--w3", "1", "--level", "1", "--boundary", "zero",
              "--order", "8"])
        rec = json.loads(capsys.readouterr().out)
        main(["trees", "--w2", "1", "--w3", "1", "--level", "1", "--boundary", "zero",
              "--order", "8", "--method", "closed"])
        clo = json.loads(capsys.readouterr().out)
        assert rec == clo

    def test_dary(self, capsys):
        main(["dary", "--kind", "odd", "--d", "1", "--level", "0", "--order", "6"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"] == ["1", "1", "2", "6", "22", "91"]

    def test_paths_excursions_csv(self, capsys):
        main(["paths", "--steps=-1:1,1:1", "--excursions", "--order", "5",
              "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,numerator,denominator"
        assert lines[1:] == ["0,1,1", "1,0,1", "2,1,1", "3,0,1", "4,2,1"]

    def test_paths_endpoint_rows(self, capsys):
        main(["paths", "--steps=-1:1,1:1", "--mark-endpoint", "--order", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"]["0"] == ["1", "0", "1", "0"]
        assert payload["rows"]["2"] == ["0", "0", "1", "0"]

    def test_walkers_closed_and_oracle_agree(self, capsys):
        main(["walkers", "--boundary", "updown", "--i", "1", "--j", "0",
              "--order", "8"])
        closed = json.loads(capsys.readouterr().out)
        main(["walkers", "--boundary", "updown", "--i", "1", "--j", "0",
              "--order", "8", "--oracle"])
        oracle = json.loads(capsys.readouterr().out)
        assert closed["coeffs"] == oracle["coeffs"]

    def test_oeis_match_via_stdin(self, capsys, monkeypatch):
        import io
        text = export_series(Series([1, 2, 6, 22, 90, 394, 1806, 8558, 41586], 9), "json")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        main(["oeis", "--match", "-"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches"] == ["A006318"]

    def test_oeis_fetch_bundled(self, capsys):
        main(["oeis", "--fetch", "A000108"])
        out = capsys.readouterr().out
        assert out.startswith("# A000108\n0 1\n1 1\n2 2\n")

    def test_verify_exit_status(self, capsys):
        assert main(["verify", "--suite", "exact-arith"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_env_order_override(self, capsys, monkeypatch):
        monkeypatch.setenv("EMBTREES_ORDER", "4")
        main(["trees", "--w1", "1"])
        assert json.loads(capsys.readouterr().out)["order"] == 4
        # explicit flag wins over the environment
        main(["trees", "--w1", "1", "--order", "6"])
        assert json.loads(capsys.readouterr().out)["order"] == 6

    def test_cache_dir_flag(self, capsys, tmp_path):
        argv = ["dary", "--kind", "even", "--d", "1", "--level", "1",
                "--order", "8", "--cache-dir", str(tmp_path)]
        main(argv)
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*.json"))  # cache populated
        main(argv)
        assert capsys.readouterr().out == first


def test_available_suites_are_the_check_prefixes():
    from embtrees import campaign

    suites = campaign.available_suites()
    assert suites == sorted(set(suites))
    assert {check_id.split("/", 1)[0] for check_id in campaign._CHECKS} == set(suites)


def test_every_check_runs_with_no_inputs():
    from embtrees import campaign

    # the suite filter is the campaign's only setting: each check's sizes are its defaults
    for check_id, (_, fn) in campaign._CHECKS.items():
        inspect.signature(fn).bind()  # TypeError if an input has no default


def test_campaign_results_come_in_check_id_order():
    from embtrees import campaign

    report = run_campaign(CampaignConfig(suites=("kernel", "exact-arith")))
    ids = [r.id for r in report.results]
    assert ids == sorted(c for c in campaign._CHECKS if c.startswith(("kernel/", "exact-arith/")))


def test_cache_put_leaves_only_the_entry(tmp_path):
    cache = SeriesCache(tmp_path)
    key = cache_key("trees", 1, 12)
    cache.put(key, export_series(Series([1, 1, 2], 3)))
    cache.put(key, export_series(Series([1, 1, 2, 5], 4)))  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
    assert import_series(cache.get(key, 4)) == Series([1, 1, 2, 5], 4)


def test_cache_entry_from_another_version_misses(tmp_path, capsys, monkeypatch):
    argv = ["trees", "--w1", "1", "--order", "6", "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    main(argv)
    capsys.readouterr()
    (stale,) = tmp_path.glob("*.json")
    stale.write_text(export_series(Series([7] * 6, 6), "json"))
    monkeypatch.undo()
    main(argv)
    assert json.loads(capsys.readouterr().out)["coeffs"] == ["1", "1", "2", "5", "14", "42"]
    assert len(list(tmp_path.glob("*.json"))) == 2


CATALAN_9 = '"coeffs": ["1", "1", "2", "5", "14", "42", "132", "429", "1430"]'
# the last two list 9 coefficients under an order that would pad or cut them
MALFORMED_SERIES = ['[1, 2]', '{"order": 5, "coeffs": 7}', '{"order": "x", "coeffs": ["1"]}',
                    '{"order": 1, "coeffs": ["1/0"]}', '{"order": 12, %s}' % CATALAN_9,
                    '{"order": 3, %s}' % CATALAN_9]


@pytest.mark.parametrize("payload", MALFORMED_SERIES)
def test_malformed_series_file_exits_2_with_one_line(payload, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(payload)
    assert main(["oeis", "--match", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "error:" in captured.err


# well-formed json series that are not what the cache writes for the query: too
# few coefficients for the order, another order, a coefficient not in ratio form,
# the right series spaced otherwise, and nesting too deep to parse
MISSHAPEN_CACHE_ENTRIES = ['{"order": 6, "coeffs": ["1", "1", "2"]}',
                           '{"order": 2, "coeffs": ["1", "1"]}',
                           '{"order": 6, "coeffs": ["1", "1", "2", "5", "14", "0.5e2"]}',
                           '{"order":6,"coeffs":["1","1","2","5","14","42"]}',
                           pytest.param("[" * 100_000, id="nested-too-deep")]


@pytest.mark.parametrize("payload", MALFORMED_SERIES + MISSHAPEN_CACHE_ENTRIES)
def test_malformed_cache_entry_is_recomputed_and_replaced(payload, tmp_path, capsys):
    argv = ["trees", "--w1", "1", "--order", "6", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    computed = capsys.readouterr().out
    assert json.loads(computed)["coeffs"] == ["1", "1", "2", "5", "14", "42"]
    (entry,) = tmp_path.glob("*.json")
    written = entry.read_text()
    entry.write_text(payload)
    assert main(argv) == 0
    assert capsys.readouterr().out == computed
    assert entry.read_text() == written


def test_cache_entry_from_another_source_digest_misses(tmp_path, capsys, monkeypatch):
    argv = ["trees", "--w1", "1", "--order", "6", "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    main(argv)
    capsys.readouterr()
    (stale,) = tmp_path.glob("*.json")
    stale.write_text(export_series(Series([7] * 6, 6), "json"))
    monkeypatch.undo()
    main(argv)
    assert json.loads(capsys.readouterr().out)["coeffs"] == ["1", "1", "2", "5", "14", "42"]
    assert len(list(tmp_path.glob("*.json"))) == 2


WALKER_QUERY = ["walkers", "--boundary", "updown", "--i", "1", "--j", "2", "--order", "8"]


def refuse_series(monkeypatch):
    """Make the trees and walkers commands raise if they build a series."""
    from embtrees import walkers as W

    def refuse(*args, **kwargs):
        raise AssertionError("built a series")

    for module, name in ((cli, "tree_root"), (W, "lockstep_star"), (W, "walker_dp")):
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("argv", [["trees", "--w1", "1"], WALKER_QUERY],
                         ids=["trees", "walkers"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_cache_dir_that_is_a_file_exits_2_before_computing(below, argv, tmp_path, capsys,
                                                           monkeypatch):
    refuse_series(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    cache_dir = taken / below if below else taken
    assert main(argv + ["--cache-dir", str(cache_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error:" in captured.err and f"--cache-dir {cache_dir}" in captured.err


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_repeated_walker_query_is_a_hit_that_builds_no_series(oracle, tmp_path, capsys,
                                                               monkeypatch):
    assert main(WALKER_QUERY + oracle) == 0
    uncached = capsys.readouterr().out
    argv = WALKER_QUERY + oracle + ["--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == uncached
    assert len(list(tmp_path.glob("*.json"))) == 1
    refuse_series(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == uncached


def test_env_order_change_between_calls_is_honoured(capsys, monkeypatch):
    for order in (4, 5):
        monkeypatch.setenv("EMBTREES_ORDER", str(order))
        main(["trees", "--w1", "1"])
        assert json.loads(capsys.readouterr().out)["order"] == order


def test_verify_unknown_suite_is_an_error(capsys):
    assert main(["verify", "--suite", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "nosuch" in captured.err


# Invalid input, whether from a flag or an EMBTREES_* default, is an
# argparse error: exit 2, nothing on stdout, the reason on the last line.
CLI_INPUT_ERRORS = [
    ({"EMBTREES_FORMAT": "xml"}, ["trees", "--w1", "1"], "EMBTREES_FORMAT"),
    ({"EMBTREES_ORDER": "abc"}, ["trees", "--w1", "1"], "EMBTREES_ORDER"),
    ({}, ["trees", "--w1", "1", "--level", "-2"], "--level"),
    ({}, ["trees", "--w1", "1", "--order", "0"], "--order"),
    ({}, ["walkers", "--i", "-1"], "--i"),
    ({}, ["verify", "--jobs", "2"], "--jobs"),
    ({}, ["verify", "--order", "5"], "--order"),
    ({}, ["verify", "--config", "f"], "--config"),
]


@pytest.mark.parametrize("env,argv,fragment", CLI_INPUT_ERRORS)
def test_invalid_input_is_an_argparse_error(env, argv, fragment, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fragment in captured.err.splitlines()[-1]


# Errors a command raises on input argparse cannot judge: exit 2 and one line.
CLI_COMMAND_ERRORS = [
    (["dary", "--kind", "odd", "--d", "1", "--level", "-3"], "level -3"),
    (["dary", "--kind", "odd", "--d", "0"], "d must be positive"),
    (["paths", "--steps=1:1"], "positive jump"),
    (["trees", "--w1", "1/0"], "ZeroDivisionError"),
    (["paths", "--steps=-2:1,-1:3", "--excursions"], "positive jump"),
    (["paths", "--steps=-1:1", "--mark-endpoint"], "positive jump"),
]


@pytest.mark.parametrize("argv,fragment", CLI_COMMAND_ERRORS)
def test_command_errors_exit_2_with_one_line(argv, fragment, capsys):
    assert main(argv + ["--order", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and fragment in captured.err


# Walker models the closed form and the oracle both reject.
WALKER_MODEL_ERRORS = [
    (["walkers", "--steps", "motzkin"], "dyck steps"),
    (["walkers", "--mode", "random-turn", "--boundary", "refined", "--u", "1/2", "--w", "1/3"],
     "lock-step model"),
    (["walkers", "--boundary", "vicious", "--u", "5", "--w", "7"], "refined boundary alone"),
    (["walkers", "--boundary", "refined"], "--u and --w"),
    (["walkers", "--boundary", "refined", "--u", "1/2"], "--u and --w"),
    (["walkers", "--boundary", "refined", "--w", "1/3"], "--u and --w"),
]


@pytest.mark.parametrize("argv,fragment", WALKER_MODEL_ERRORS)
@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_invalid_walker_models_exit_2_on_both_paths(argv, fragment, oracle, capsys):
    assert main(argv + ["--i", "1", "--j", "1", "--order", "6"] + oracle) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error:" in captured.err and fragment in captured.err


def test_missing_file_exits_2_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.toml"
    assert main(["oeis", "--match", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "FileNotFoundError" in captured.err and str(missing) in captured.err


def test_failed_verification_exits_1(capsys, monkeypatch):
    from embtrees import campaign

    claim, _ = campaign._CHECKS["kernel/fuss-catalan"]
    monkeypatch.setitem(campaign._CHECKS, "kernel/fuss-catalan",
                        (claim, lambda **_: (False, "forced failure")))
    assert main(["verify", "--suite", "kernel/fuss-catalan"]) == 1
    assert "forced failure" in capsys.readouterr().out


def guard_sizes(monkeypatch, limit=100):
    """Make every level and gap loop refuse a size past ``limit``: a far value that
    reached one unclamped would raise, never run."""
    from embtrees import binary as B
    from embtrees import dary as D
    from embtrees import paths as P
    from embtrees import walkers as W

    for module, name, size in ((B, "level_rows", lambda a: a[2]),
                               (D, "level_rows", lambda a: a[2]),
                               (P, "_meander_parts", lambda a: a[2]),
                               (B, "_x_powers", lambda a: a[1]),
                               (W, "_gap_rows", lambda a: a[2][0]),
                               (W, "_star_parts", lambda a: a[3])):
        def guarded(*args, _original=getattr(module, name), _size=size, _name=name):
            assert _size(args) <= limit, f"{_name} asked for {_size(args)}"
            return _original(*args)
        monkeypatch.setattr(module, name, guarded)


FAR = "100000000"


# (order - 1) * delta, delta the deepest downward offset: every row from there up is T
@pytest.mark.parametrize("argv,near", [
    (["trees", "--w1", "1", "--order", "8"], "7"),
    (["trees", "--v1", "1", "--w2", "1", "--w3", "1", "--boundary", "zero", "--order", "8"], "7"),
    (["trees", "--w2", "1", "--w3", "1", "--method", "closed", "--order", "8"], "7"),
    (["dary", "--kind", "odd", "--d", "2", "--order", "6"], "10"),
    (["dary", "--kind", "even", "--d", "2", "--order", "5"], "12"),
])
def test_far_level_prints_what_its_clamp_prints(argv, near, capsys, monkeypatch):
    guard_sizes(monkeypatch)
    outputs = []
    for extra in (["--level", FAR], ["--level", near], []):  # the last prints T itself
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("output", [[], ["--excursions"], ["--mark-endpoint"]])
def test_far_meander_level_prints_what_an_unclamped_reference_prints(output, capsys,
                                                                     monkeypatch):
    from embtrees import paths as P

    steps, order, near = "-2:1,-1:2,1:1,3:1", 6, 40  # the CLI clamps to (6 - 1) * 2
    # the dynamic program from a level past the clamp, from the library, which clamps nothing
    plain, marked = P._meander_dp_series(parse_step_set(steps), near, order)
    guard_sizes(monkeypatch)
    assert main(["paths", f"--steps={steps}", "--level", FAR, "--order", str(order)]
                + output) == 0
    out = capsys.readouterr().out
    if output == ["--mark-endpoint"]:
        shift = int(FAR) - near
        ends = sorted({end for row in marked.coeffs for end in row})
        assert json.loads(out) == {"order": order, "start": int(FAR), "rows": {
            str(end + shift): [str(c) for c in marked.extract(end).coeffs] for end in ends}}
    else:
        want = marked.extract(near) if output else plain
        assert out == export_series(want, "json") + "\n"


# a gap of --order or more reads the same column as a gap of --order
@pytest.mark.parametrize("argv,model,cell", [
    (["walkers", "--j", "0", "--order", "6", "--oracle"], ("lock_step", "dyck", "vicious"),
     ("--i", 0)),
    (["walkers", "--boundary", "osculating", "--j", "2", "--order", "6"],
     ("lock_step", "dyck", "osculating"), ("--i", 2)),
    (["walkers", "--boundary", "refined", "--u", "1/2", "--w", "1/3", "--i", "1", "--order", "5",
      "--oracle"], ("lock_step", "dyck", "refined", Q(1, 2), Q(1, 3)), ("--j", 1)),
    (["walkers", "--mode", "random-turn", "--steps", "motzkin", "--boundary", "osculating",
      "--i", "3", "--order", "6"], ("random_turn", "motzkin", "osculating"), ("--j", 3)),
])
def test_far_gap_prints_what_its_clamp_prints(argv, model, cell, capsys, monkeypatch):
    from embtrees import walkers as W

    flag, other = cell
    order = int(argv[argv.index("--order") + 1])
    # the oracle at the clamped gap, from the library, which clamps nothing
    gaps = (order, other) if flag == "--i" else (other, order)
    want = export_series(Series(W.walker_dp(W.WalkerModel(*model), *gaps, order)), "json")
    guard_sizes(monkeypatch)
    for value in (FAR, str(order)):
        assert main(argv + [flag, value]) == 0
        assert capsys.readouterr().out == want + "\n"


def test_far_level_keeps_its_own_cache_entry(tmp_path, capsys, monkeypatch):
    guard_sizes(monkeypatch)
    argv = ["dary", "--kind", "odd", "--d", "1", "--order", "6", "--cache-dir", str(tmp_path)]
    for value in (FAR, "5", FAR):
        assert main(argv + ["--level", value]) == 0
    first, near, hit = capsys.readouterr().out.splitlines()
    assert first == near == hit
    assert len(list(tmp_path.glob("*.json"))) == 2  # the user's level is in the key
