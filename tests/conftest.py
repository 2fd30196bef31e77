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


@pytest.fixture
def split_eeg(monkeypatch):
    """Read every EEG file in three parts however small it is, and check
    that some part was handed to a worker process."""
    from cognlp import ingest, workers

    forks = []
    fork = workers._fork

    def counted(work, *args):
        if getattr(work, "func", work) is ingest._eeg_entries:
            forks.append(args)
        return fork(work, *args)

    monkeypatch.setattr(ingest, "_MIN_SPLIT_BYTES", 1)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    monkeypatch.setattr(workers, "_fork", counted)
    yield
    assert forks, "no EEG part went to a worker"
