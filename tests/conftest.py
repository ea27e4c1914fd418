"""Shared test fixtures: the worked tour example and small helpers."""

import os

import pytest
from hypothesis import settings

from nlo.outline import Outline, OutlineStatement
from nlo.source_model import PYTHON_PROFILE, SourceUnit

# CI (GitHub Actions sets CI) runs every property test derandomized, so a
# failure on either matrix Python reproduces exactly; local runs stay random.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# A 16-line function used throughout: a nearest-neighbor tour construction.
TOUR_CODE = """\
def nearest_neighbor_tour(nodes):
  distances = scipy.spatial.distance_matrix(nodes, nodes)
  current_node = 0
  tour = [current_node]
  tour_cost = 0.0
  distance_to_start = distances[current_node].copy()

  for _ in range(len(nodes) - 1):
    distances[:, current_node] = np.Inf
    neighbor = distances[current_node].argmin()
    tour_cost += distances[current_node][neighbor]
    tour.append(neighbor)
    current_node = neighbor

  tour_cost += distance_to_start[current_node]
  return tour_cost, tour"""

# The same function with its six-statement outline interleaved as star comments.
TOUR_ANNOTATED = """\
def nearest_neighbor_tour(nodes):
  #* Compute all pairwise distances between nodes.
  distances = scipy.spatial.distance_matrix(nodes, nodes)
  #* Initialize the tour.
  current_node = 0
  tour = [current_node]
  tour_cost = 0.0
  distance_to_start = distances[current_node].copy()

  #* Iteratively add all nodes to the tour.
  for _ in range(len(nodes) - 1):
    #* Mark the current node as visited.
    distances[:, current_node] = np.Inf
    #* Extend the tour by going to the nearest unvisited neighbor.
    neighbor = distances[current_node].argmin()
    tour_cost += distances[current_node][neighbor]
    tour.append(neighbor)
    current_node = neighbor

  #* Complete the cycle back to the starting node.
  tour_cost += distance_to_start[current_node]
  return tour_cost, tour"""

TOUR_STATEMENTS = (
    OutlineStatement(2, "Compute all pairwise distances between nodes."),
    OutlineStatement(3, "Initialize the tour."),
    OutlineStatement(8, "Iteratively add all nodes to the tour."),
    OutlineStatement(9, "Mark the current node as visited."),
    OutlineStatement(10, "Extend the tour by going to the nearest unvisited neighbor."),
    OutlineStatement(15, "Complete the cycle back to the starting node."),
)

# The two-line squaring function from the numbering walkthrough.
SQ_CODE = "def sq(x):\n  return x**2"


@pytest.fixture
def tour_unit() -> SourceUnit:
    return SourceUnit.from_text(TOUR_CODE, profile=PYTHON_PROFILE)


@pytest.fixture
def tour_annotated_unit() -> SourceUnit:
    return SourceUnit.from_text(TOUR_ANNOTATED, profile=PYTHON_PROFILE)


@pytest.fixture
def tour_outline() -> Outline:
    return Outline(statements=TOUR_STATEMENTS)


@pytest.fixture
def sq_unit() -> SourceUnit:
    return SourceUnit.from_text(SQ_CODE, profile=PYTHON_PROFILE)
