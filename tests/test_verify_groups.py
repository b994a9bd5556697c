"""The two check groups of ``verify`` and the CLI run that forks one of them.

``run_all`` runs every check in one process; the CLI runs the c group in
a forked child and the volume group in its own process, and must print
the same bytes.  A monkeypatch made before the fork holds in the child.
"""

import os

import pytest

from supervol import cli, qlocal, rootsys, verify

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

C_CHECKS = {
    "check_pfaffian_square", "check_c_table", "check_c_recursions", "check_c_vanishing",
    "check_gl_localization", "check_casimir_positivity", "check_rho_coefficients",
    "check_d21a_weights",
}
SMALL = ["--max-n", "2", "--max-n-c", "3"]


@pytest.fixture
def forks(monkeypatch):
    """Force the forked run on any machine, and count the forks."""
    count = []
    real_fork = os.fork

    def fork():
        count.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return count


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_each_check_and_table_belongs_to_one_group(monkeypatch):
    seen = []

    def recorded(label, fn):
        def wrapper(*args, **kwargs):
            seen.append(label)
            return fn(*args, **kwargs)
        return wrapper

    checks = [name for name in dir(verify) if name.startswith("check_")]
    for name in checks:
        monkeypatch.setattr(verify, name, recorded(name, getattr(verify, name)))
    monkeypatch.setattr(qlocal, "brute_c_table", recorded("c table", qlocal.brute_c_table))
    monkeypatch.setattr(verify, "_specs", recorded("volume table", verify._specs))
    real_build = rootsys.build_root_system

    def build(family, *params):
        seen.append(f"{family} system")
        return real_build(family, *params)

    monkeypatch.setattr(rootsys, "build_root_system", build)

    plan = verify._plan(1, 2, 3)
    by_group = {}
    for group in (verify.C_GROUP, verify.VOLUME_GROUP):
        seen.clear()
        verify._run_group(plan, group)
        by_group[group] = list(seen)
    c_seen, volume_seen = by_group[verify.C_GROUP], by_group[verify.VOLUME_GROUP]
    assert sorted(c for c in c_seen if c.startswith("check_")) == sorted(C_CHECKS)
    assert sorted(c for c in volume_seen if c.startswith("check_")) == \
        sorted(set(checks) - C_CHECKS)
    # each table is built once, by the group that reads it
    assert c_seen.count("c table") == 1
    assert volume_seen.count("volume table") == 1
    assert volume_seen.count("gl system") == 25
    assert not {"volume table", "gl system"} & set(c_seen)
    assert "c table" not in volume_seen


def test_forked_results_are_run_all_in_its_order(forks):
    assert verify.run_forked(1, 2, 3) == verify.run_all(1, 2, 3)
    assert len(forks) == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("bounds", [[], SMALL], ids=["defaults", "small"])
def test_cli_output_is_that_of_run_all(capsys, monkeypatch, forks, fmt, bounds):
    argv = ["verify", "--format", fmt, *bounds]
    forked = run_cli(capsys, argv)
    assert len(forks) == 1
    # one usable CPU: both groups run in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_cli(capsys, argv) == forked
    assert len(forks) == 1
    monkeypatch.setattr(verify, "run_forked", verify.run_all)
    assert run_cli(capsys, argv) == forked
    assert forked[0] == 0


def test_a_fail_in_the_forked_group_exits_one(capsys, monkeypatch, forks):
    monkeypatch.setattr(verify, "check_c_vanishing", lambda: verify.CheckResult(
        "c-nonzero-iff-even-parity-product", False, "planted"))
    code, out, _ = run_cli(capsys, ["verify", *SMALL])
    assert len(forks) == 1
    assert code == 1
    assert "[FAIL] c-nonzero-iff-even-parity-product: planted\n" in out
    assert out.endswith("\n19/20 checks passed\n")


@pytest.mark.parametrize("error", [ValueError("planted"),
                                   KeyError((2, 4)), RuntimeError("planted", 7)])
@pytest.mark.parametrize("check", ["check_casimir_positivity", "check_chains"])
def test_an_exception_in_a_group_is_raised_as_in_process(monkeypatch, forks, error, check):
    def planted(*args):
        raise error

    monkeypatch.setattr(verify, check, planted)
    with pytest.raises(type(error)) as in_process:
        verify.run_all(1, 2, 3)
    with pytest.raises(type(error)) as forked:
        verify.run_forked(1, 2, 3)
    assert len(forks) == 1
    assert type(forked.value) is type(in_process.value)
    assert forked.value.args == in_process.value.args
    # the child has been waited for: this process has none left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_domain_error_in_the_forked_group_exits_one(capsys, monkeypatch, forks):
    def planted():
        raise ValueError("planted domain error")

    monkeypatch.setattr(verify, "check_d21a_weights", planted)
    assert run_cli(capsys, ["verify", *SMALL]) == (1, "", "error: planted domain error\n")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_runs_both_groups_here(monkeypatch, forks):
    pipes = []
    real_pipe = os.pipe

    def pipe():
        pipes.extend(real_pipe())
        return tuple(pipes)

    def fork():
        forks.append(1)
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    assert verify.run_forked(1, 2, 3) == verify.run_all(1, 2, 3)
    assert len(forks) == 1
    for fd in pipes:  # both ends are closed
        with pytest.raises(OSError):
            os.fstat(fd)


def test_a_child_that_dies_without_reporting_is_replaced_here(monkeypatch, forks):
    parent = os.getpid()
    real = verify.check_c_vanishing

    def dies_in_the_child():
        if os.getpid() != parent:
            os._exit(9)
        return real()

    monkeypatch.setattr(verify, "check_c_vanishing", dies_in_the_child)
    assert verify.run_forked(1, 2, 3) == verify.run_all(1, 2, 3)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_parent_runs_no_c_check_when_the_child_reports(monkeypatch, forks):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in C_CHECKS:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    forked = verify.run_forked(1, 2, 3)
    assert len(forks) == 1
    assert calls == []
    # the counters count in this process
    assert forked == verify.run_all(1, 2, 3)
    assert sorted(calls) == sorted(C_CHECKS)
