from supervol import verify


def test_run_all_calls_every_check_once(monkeypatch):
    calls = {}

    def counting(name, check):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return check(*args, **kwargs)
        return wrapper

    names = [name for name in dir(verify) if name.startswith("check_")]
    for name in names:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    results = verify.run_all(seed=1, max_n_grass=1, max_n_c=2)
    assert calls == {name: 1 for name in names}
    assert len({r.name for r in results}) == len(results) == 20
    assert all(r.passed for r in results)
