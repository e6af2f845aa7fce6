import pytest

_CRITERION_LINES = []


@pytest.fixture
def criterion_report():
    """Collector for the one-line acceptance verdicts.

    Lines are echoed immediately (visible under -s) and replayed in the
    terminal summary so the per-criterion verdicts survive capture.
    """

    def _record(line):
        _CRITERION_LINES.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def solves(monkeypatch):
    """Count the LPs each engine solves."""
    from fraisse import lp

    counts = {"float": 0, "exact": 0}
    for name in counts:

        def spy(*args, _name=name, _orig=getattr(lp, f"_solve_{name}")):
            counts[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(lp, f"_solve_{name}", spy)
    return counts


@pytest.fixture(scope="session")
def gurarij_chain():
    """The depth-5 tower shared by the extension and coupling criteria."""
    from fraisse import chains

    return chains.build_gurarij_chain(depth=5, dim_cap=12, net_resolution=0.25, seed=0)


@pytest.fixture(scope="session")
def operator_chain():
    """The depth-4 operator tower shared by the battery criteria."""
    from fraisse import universal

    return universal.build_universal_operator_chain(depth=4, seed=0)
