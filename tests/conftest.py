import pytest

from seqcover import NormalModel, Sequence

# The worked two-sequence reference set used throughout: covering s3 takes
# four [0,0,1,1] blocks, covering s4 takes eight [0,1] blocks.
S1 = Sequence((0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1), "s1")
S2 = Sequence((0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1), "s2")
S3 = Sequence((0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1), "s3")
S4 = Sequence((0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1), "s4")

# raw tuples may hold any int: negatives, 0, and values past a byte and past int64
RAW_SYMBOLS = (-7, -1, 0, 255, 256, 10**6, 2**63, 2**70)


@pytest.fixture(scope="session")
def reference_model():
    return NormalModel((S1, S2))
