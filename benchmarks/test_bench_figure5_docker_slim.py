"""Figure 5: container-size reduction from Docker Slim on the Top-50 images."""

import pytest

from repro.bench.harness import figure5_docker_slim, format_figure5


@pytest.fixture(scope="module")
def sweep():
    return figure5_docker_slim(max_files=300)


def test_figure5_reduction_histogram(sweep):
    print()
    print(format_figure5(sweep))
    assert len(sweep.reports) == 50


def test_figure5_mean_matches_paper(sweep):
    assert sweep.mean_reduction == pytest.approx(66.6, abs=3.0)


def test_figure5_single_binary_images(sweep):
    assert sweep.count_below(10.0) == 6


def test_figure5_bulk_of_images_between_60_and_97(sweep):
    assert sweep.count_between(60.0, 97.0) / len(sweep.reports) >= 0.75
