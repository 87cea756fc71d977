"""The deviation report of ``tools/repro_digests.py --against``."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    'repro_digests', Path(__file__).resolve().parent.parent / 'tools' / 'repro_digests.py')
repro_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(repro_digests)


def jsonl(*records) -> bytes:
    return ''.join(json.dumps(rec, sort_keys=True) + '\n' for rec in records).encode()


@pytest.mark.parametrize('ours, theirs, want', [
    (b'1,2\n3,nan\n', b'1,2.5\n3,nan\n', 'largest |deviation| 0.5 over 4 cells'),
    (b'1,2\n3,4\n', b'1,2\n3,nan\n', 'largest |deviation| inf over 4 cells'),
    (b'1,2\n3,x\n', b'1,2\n3,y\n', 'a cell that is not a number differs'),
    (b'1,2\n3,4\n', b'1,2\n', 'rows or columns differ (2 rows against 1)'),
], ids=['cell', 'nan', 'text', 'rows'])
def test_csv_cells(ours, theirs, want):
    assert repro_digests._deviation('fig/out.csv', ours, theirs) == want


def test_json_lines_by_key():
    ours = jsonl({'step': 0, 'x': [[1.0, 2.0]], 'label': 3}, {'summary': {'status': 'a'}})
    theirs = jsonl({'step': 0, 'x': [[1.0, 2.25]], 'label': 3}, {'summary': {'status': 'b'}})
    assert repro_digests._deviation('fig/trace.jsonl', ours, theirs) == (
        'largest |deviation| by key over 2 records: summary.status differs, x 0.25; '
        '2 keys unchanged')


def test_other_outputs_are_only_named():
    assert repro_digests._deviation('fig/stdout', b'a\n', b'b\n') == (
        'differs; only CSV cells and JSON-lines fields are compared')
    assert repro_digests._deviation('fig/trace.jsonl', b'{}\n', b'no json\n').startswith(
        'not comparable')
