"""Settings of the tier-1 suite that the perfbench tests do not share."""


def pytest_configure(config):
    # A concentration dip below zero is a failure unless the test that
    # provokes it says so with pytest.warns or a filterwarnings mark.
    config.addinivalue_line(
        "filterwarnings", "error::snpp.errors.NegativeConcentration")
