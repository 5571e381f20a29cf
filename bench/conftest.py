import pytest


@pytest.hookimpl(optionalhook=True)
def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Keep each benchmark's statistics in the JSON, not every round's time:
    with thousands of rounds a benchmark, the raw times are megabytes."""
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
