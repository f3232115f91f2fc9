"""Caption preprocessing, tokenization, and vocabulary management."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from . import files

__all__ = ["PAD", "SOS", "EOS", "UNK", "Vocabulary", "normalize_and_tokenize"]

PAD, SOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ["<pad>", "<sos>", "<eos>", "<unk>"]

# lowercase, then strip everything that is not a letter, digit, apostrophe or
# whitespace; punctuation is deleted, not replaced, so contractions survive.
_STRIP = re.compile(r"[^a-z0-9' ]+")


class EmptyCaptionError(ValueError):
    pass


def normalize_and_tokenize(raw: str) -> list[str]:
    """Lowercase, remove punctuation, split on whitespace runs."""
    cleaned = _STRIP.sub("", raw.lower().replace("\t", " ").replace("\n", " "))
    tokens = cleaned.split()
    if not tokens:
        raise EmptyCaptionError(f"caption empty after normalization: {raw!r}")
    return tokens


@dataclass
class Vocabulary:
    """Bijective token <-> id map with fixed reserved ids 0..3."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        assert self.id_to_token[:4] == RESERVED
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}

    @classmethod
    def build(cls, corpus: list[list[str]], min_count: int = 1) -> "Vocabulary":
        """Collect tokens with count >= min_count, ordered by count desc then lexicographic."""
        counts: dict[str, int] = {}
        for tokens in corpus:
            for tok in tokens:
                counts[tok] = counts.get(tok, 0) + 1
        if not counts:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        kept = sorted(
            (tok for tok, c in counts.items() if c >= min_count),
            key=lambda tok: (-counts[tok], tok),
        )
        return cls(RESERVED + kept)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        """Map tokens to ids between <sos> and <eos>; unknown words map to <unk>."""
        return [SOS] + [self.token_to_id.get(tok, UNK) for tok in tokens] + [EOS]

    def decode(self, ids) -> list[str]:
        """Map ids back to words, stripping pad/sos/eos markers."""
        out = []
        for i in ids:
            i = int(i)
            if i < 0 or i >= len(self.id_to_token):
                raise IndexError(f"token id {i} outside vocabulary of size {len(self)}")
            if i in (PAD, SOS, EOS):
                continue
            out.append(self.id_to_token[i])
        return out

    def save(self, path) -> None:
        """One non-reserved token per line; line number = id - 4."""
        files.write_text(path, "\n".join(self.id_to_token[4:]) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(RESERVED + [t for t in tokens if t])
