import hashlib

import pytest

from anchorstream import decode_session

import conformance


@pytest.mark.parametrize("name", list(conformance.CASES))
def test_committed_stream_decodes_to_every_recorded_checksum(name):
    want = conformance.load_manifest()[name]
    base = conformance.case_source(name)[0].base_gaussians()
    stream = conformance.stream_path(name).read_bytes()
    assert hashlib.sha256(stream).hexdigest() == want["sha256"]
    decoded = decode_session(base, stream)
    assert [row.checksum for row in decoded.metrics] == want["checksums"]
    assert sum(row.reconfig for row in decoded.metrics) == want["rebuilds"]
    assert sum(row.relocation_bytes > 0 for row in decoded.metrics) == want["relocation_frames"]


@pytest.mark.parametrize("name", list(conformance.CASES))
def test_encoding_afresh_reproduces_the_committed_stream(name):
    want = conformance.load_manifest()[name]
    result = conformance.encode_case(name)
    assert [row.checksum for row in result.metrics] == want["checksums"]
    assert hashlib.sha256(result.stream).hexdigest() == want["sha256"]


def test_the_manifest_and_the_directory_hold_exactly_the_cases():
    # an unregistered or orphaned vector would otherwise pass unchecked
    cases = set(conformance.CASES)
    assert set(conformance.load_manifest()) == cases
    assert {path.stem for path in conformance.HERE.glob("*.rcgs")} == cases
