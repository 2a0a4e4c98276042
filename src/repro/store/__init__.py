"""repro.store: content-addressed, resumable result persistence.

Every scenario run is keyed by a stable digest of *(ScenarioSpec
fields, seed, config overrides, fault plan + intensity, code
version)*; because the simulator is byte-deterministic (the golden
suites pin it), a key hit can be loaded instead of recomputed with no
observable difference -- exports are byte-identical cold, warm or
resumed.  See :mod:`repro.store.keys` for the keying contract,
:mod:`repro.store.entry` for the checksummed on-disk format, and
:mod:`repro.store.store` for the store/journal API used by the
campaign runner and the shield-margin ladder.

Two entry kinds share the store: ``RRSTORE1`` results (``.rrs``) and
``RTRACE1`` trace recordings (``.rts``) -- the persisted tracepoint
streams ``repro.observe.diff`` (simdiff) aligns and diffs.
"""

from repro.store.entry import (
    StoreCorruptError,
    decode,
    decode_recording,
    encode_recording,
    encode_result,
    encode_stalled,
    entry_kind_of,
    result_from_entry,
)
from repro.store.keys import (
    canonical_json,
    code_version,
    digest_of,
    job_key,
    recording_key,
)
from repro.store.store import (
    DEFAULT_STORE_DIR,
    GcReport,
    JournalWriter,
    ResultStore,
    StoreEntry,
    open_store,
)

__all__ = [
    "DEFAULT_STORE_DIR",
    "GcReport",
    "JournalWriter",
    "ResultStore",
    "StoreCorruptError",
    "StoreEntry",
    "canonical_json",
    "code_version",
    "decode",
    "decode_recording",
    "digest_of",
    "encode_recording",
    "encode_result",
    "encode_stalled",
    "entry_kind_of",
    "job_key",
    "open_store",
    "recording_key",
    "result_from_entry",
]
