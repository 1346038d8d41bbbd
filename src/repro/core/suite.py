"""The Tango benchmark registry — the suite's public entry point.

Mirrors the released Tango repository: seven benchmarks, each pairing a
network with its standard input and (synthetic) pre-trained model, plus
the Table I metadata describing what the original artifacts were.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.core.graph import NetworkGraph
from repro.core.inputs import input_for
from repro.core.networks import BUILDERS
from repro.core.weights import synthesize_weights


@dataclass(frozen=True)
class BenchmarkInfo:
    """Table I metadata for one benchmark."""

    name: str
    display_name: str
    kind: str  # "cnn" | "rnn"
    input_description: str
    model_description: str
    output_description: str
    languages: tuple[str, ...] = ("cuda",)


#: Table I of the paper, one row per network.
BENCHMARK_INFO: dict[str, BenchmarkInfo] = {
    "gru": BenchmarkInfo(
        "gru", "GRU", "rnn",
        "Bitcoin stock price values of past two days (scaled)",
        "Trained with bitcoin stock price database (Kaggle team-ai)",
        "Projected next stock price based on past two days' stock price",
    ),
    "lstm": BenchmarkInfo(
        "lstm", "LSTM", "rnn",
        "Bitcoin stock price values of past two days (scaled)",
        "Trained with bitcoin stock price database (Kaggle team-ai)",
        "Projected next stock price based on past two days' stock price",
    ),
    "cifarnet": BenchmarkInfo(
        "cifarnet", "CifarNet", "cnn",
        "Speed limit 35 image",
        "Traffic-signal model (github.com/chethankeshava/DeepLearningProject)",
        "Confidence level for all 9 classes",
        languages=("cuda", "opencl"),
    ),
    "alexnet": BenchmarkInfo(
        "alexnet", "AlexNet", "cnn",
        "Cat image",
        "BVLC Caffe bvlc_alexnet reference model",
        "Recognized class id",
        languages=("cuda", "opencl"),
    ),
    "squeezenet": BenchmarkInfo(
        "squeezenet", "SqueezeNet", "cnn",
        "Cat image",
        "DeepScale SqueezeNet v1.0 reference model",
        "Recognized class id",
    ),
    "resnet": BenchmarkInfo(
        "resnet", "ResNet", "cnn",
        "Cat image",
        "KaimingHe deep-residual-networks ResNet-50 model",
        "Recognized class id",
    ),
    "vggnet": BenchmarkInfo(
        "vggnet", "VGGNet", "cnn",
        "Killer whale image",
        "VGG very-deep 16-layer reference model",
        "Recognized class id",
    ),
    "mobilenet": BenchmarkInfo(
        "mobilenet", "MobileNet", "cnn",
        "Cat image",
        "MobileNet v1 (width 1.0) reference architecture, synthetic weights",
        "Recognized class id",
    ),
}

#: Canonical network ordering used by the paper's figures.
NETWORK_ORDER = ("gru", "lstm", "cifarnet", "alexnet", "squeezenet", "resnet", "vggnet")

#: Extension networks beyond the paper's seven (runnable and
#: characterizable, excluded from the paper-figure harness).
EXTENSION_NETWORKS = ("mobilenet",)

#: Every runnable network: the paper's seven, then the extensions.
SUITE_NETWORKS = NETWORK_ORDER + EXTENSION_NETWORKS

#: The CNNs characterized in the per-layer-type figures (Figs 1, 4, 13, 14).
CNN_BREAKDOWN_ORDER = ("cifarnet", "alexnet", "squeezenet", "resnet")


def list_networks() -> tuple[str, ...]:
    """Names of all benchmarks in the suite, in figure order."""
    return NETWORK_ORDER


@lru_cache(maxsize=None)
def get_network(name: str) -> NetworkGraph:
    """Build (and cache) the named network graph."""
    try:
        builder: Callable[[], NetworkGraph] = BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown network {name!r}; available: {', '.join(sorted(BUILDERS))}"
        ) from None
    return builder()


@dataclass
class Benchmark:
    """One runnable benchmark: network + input + synthetic model."""

    info: BenchmarkInfo
    graph: NetworkGraph
    _weights: dict | None = field(default=None, repr=False)

    @property
    def weights(self) -> dict:
        """Lazily synthesized weight store (node -> tensor -> array)."""
        if self._weights is None:
            self._weights = synthesize_weights(self.graph)
        return self._weights

    def standard_input(self, seed: int = 2019) -> np.ndarray:
        """The benchmark's standard input tensor."""
        return input_for(self.graph, seed=seed)

    def run(self, x: np.ndarray | None = None) -> np.ndarray:
        """Run one inference; defaults to the standard input."""
        if x is None:
            x = self.standard_input()
        return self.graph.run(x, self.weights)


class TangoSuite:
    """The full benchmark suite.

    Example::

        suite = TangoSuite()
        result = suite["alexnet"].run()     # 1000 class probabilities
        for bench in suite:                  # iterate in figure order
            print(bench.info.display_name)
    """

    def __init__(self, names: tuple[str, ...] = NETWORK_ORDER):
        self._benchmarks = {
            name: Benchmark(BENCHMARK_INFO[name], get_network(name)) for name in names
        }

    def __getitem__(self, name: str) -> Benchmark:
        return self._benchmarks[name]

    def __iter__(self):
        return iter(self._benchmarks.values())

    def __len__(self) -> int:
        return len(self._benchmarks)

    @property
    def names(self) -> tuple[str, ...]:
        """Benchmark names in registration order."""
        return tuple(self._benchmarks)
