"""Exception types shared across the package."""


class FishburnError(ValueError):
    """Base class for all domain validation errors."""


class NotAscentSequenceError(FishburnError):
    """The sequence breaks the ascent bound.

    `index` is the first violating position, 1-based: index 1 means the
    sequence does not start with 0.
    """

    def __init__(self, index):
        self.index = index
        super().__init__(f"not an ascent sequence (entry {index})")


class EmptyObjectError(FishburnError):
    """The operation is undefined on an object with no elements."""


class NotModifiedSequenceError(FishburnError):
    """The sequence is not the modification of any ascent sequence."""


class NotPermutationError(FishburnError):
    """Entries are not a permutation of 1..n."""


class NotInvolutionError(FishburnError):
    """The partner array is not an involution."""


class FixedPointError(FishburnError):
    """The involution has a fixed point, so it is not a chord diagram."""


class NotPartialOrderError(FishburnError):
    """The relation is not irreflexive and transitive."""


class NotTwoPlusTwoFreeError(FishburnError):
    """The poset contains two disjoint 2-chains as an induced subposet.

    `witness` holds four element labels {x, x', y, y'} with x' < x and
    y' < y and no other relations among them.
    """

    def __init__(self, witness):
        self.witness = tuple(sorted(witness))
        super().__init__(f"contains an induced 2+2 on {self.witness}")


class NotInRError(FishburnError):
    """The permutation contains the forbidden pattern (231,{1},{1}).

    `witness` is the position triple (i, i+1, k) of the leftmost
    occurrence: p_i < p_{i+1} and p_k = p_i - 1 with k > i.
    """

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(f"forbidden pattern at positions {self.witness}")


class NeighbourNestingError(FishburnError):
    """The chord diagram has a nesting at neighbouring endpoints.

    `witness` holds the two chords (opener, closer) at the leftmost pair
    of endpoints i, i+1 that nest, the outer chord first.
    """

    def __init__(self, witness):
        self.witness = tuple(witness)
        (a, b), (c, d) = self.witness
        super().__init__(f"nested chords ({a},{b}) and ({c},{d})")


class LengthMismatchError(FishburnError):
    """Binary pattern operation on patterns of different lengths."""


class BruteForceCapError(FishburnError):
    """Requested size exceeds the configured exhaustive-search cap."""


class ParseError(FishburnError):
    """A canonical text form could not be parsed."""


class SettingError(FishburnError):
    """An environment setting holds a malformed value."""
