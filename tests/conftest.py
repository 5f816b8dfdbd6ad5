import os


def pytest_configure(config):
    # ``pythonpath`` in pyproject.toml reaches only this process; the tests
    # that run ``python -m prefgame`` in a subprocess need the checkout too.
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Replay the acceptance criterion lines after capture has ended, so a
    # plain pytest run still shows one PASS/FAIL line per criterion.
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)
