import pytest

from cognlp.ingest import Corpus, FixationEvent, Sentence, _eeg_line
from cognlp.synth import generate_synthetic


def make_events(spec, subject="A", sid="s1"):
    """Build seq-ordered events from (word_index, duration) pairs."""
    return [
        FixationEvent(subject, sid, seq, w, float(dur))
        for seq, (w, dur) in enumerate(spec)
    ]


def eeg_text(records):
    """The text of ``records``' lines, as ``synth`` writes them."""
    return b"".join(map(_eeg_line, records)).decode("utf-8")


def synth_records(spec, seed):
    """A ``generate_synthetic`` run and the EEG records it drew, in order."""
    records = []
    return generate_synthetic(spec, seed, eeg_sink=records.append), records


@pytest.fixture
def ner_corpus():
    return Corpus(
        task="ner",
        sentences=(
            Sentence("s1", ("John", "slept", "here"), ("B-PER", "O", "O")),
            Sentence("s2", ("Mary", "visited", "Rome"), ("B-PER", "O", "B-LOC")),
        ),
    )

