"""Word-level eye-tracking and EEG features for desk-scale NLP experiments."""

__version__ = "0.1.0"

#: Every submodule. Each is imported when first named as an attribute of the
#: package, so a CLI command loads only the modules it runs, while
#: ``dir(cognlp)`` and ``cognlp.models`` still list and reach them all.
_SUBMODULES = (
    "aggregate", "cli", "datasets", "eeg", "errors", "evaluation", "gaze", "ingest",
    "models", "mtl", "seeding", "synth", "tables", "workers",
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
