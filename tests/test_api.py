"""The public surface keeps only what the CLI, the PGD loop and the
acceptance suite use."""

import ast
import dataclasses
import inspect
import pathlib

import pytest

import onmanifold as om
from onmanifold import bundle, cidm, errors, nystrom, ompgd, sec
from onmanifold.cli import main
from onmanifold.repro import FIGURES


@pytest.mark.parametrize('module, name', [
    (errors, 'TangentRankError'),
    (cidm, 'cidm_dissimilarity_sq'),
    (sec, 'frame_to_operator'),
    (bundle, 'dataset_digest'),
    (sec, 'OperatorRep'),
    (sec, 'EigenField'),
    (cidm, 'shape_function'),
    (sec, 'pushforward'),
    (ompgd, '_pgd_from'),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(om, name)
    assert not hasattr(module, name)
    assert name not in module.__all__


@pytest.mark.parametrize('front_end', ['cli', 'repro'])
def test_front_ends_import_no_private_name(front_end):
    tree = ast.parse(pathlib.Path(om.__file__).with_name(f'{front_end}.py').read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names
               if alias.name.startswith('_') and not alias.name.startswith('__')]
    assert private == []


def test_pgd_config_has_no_l_trunc():
    with pytest.raises(TypeError):
        om.PgdConfig(alpha=0.1, max_steps=1, l_trunc=10)


def test_field_operator_has_no_m_out():
    assert 'm_out' not in inspect.signature(om.field_operator).parameters


def test_sec_frame_keeps_only_what_queries_read():
    assert list(inspect.signature(om.SecFrame).parameters) == ['etas', 'ops']


def test_projector_derives_its_truncation():
    assert list(inspect.signature(om.NystromProjector).parameters) == ['model', 'xhat']


def test_cidm_config_has_one_kernel():
    assert [f.name for f in dataclasses.fields(om.CidmConfig)] == [
        'k_nn', 'n_eigs', 'epsilon', 'kernel_variant']


@pytest.mark.parametrize('flag', [['--shape', 'indicator'], ['--per-point-scales']])
def test_fit_has_no_kernel_shape_or_scale_flags(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(['fit', str(tmp_path / 'pts.csv'), '--k-nn', '5', '--n-eigs', '4',
              '--out', str(tmp_path / 'model.bundle'), *flag])
    assert info.value.code == 1
    assert f'unrecognized arguments: {" ".join(flag)}' in capsys.readouterr().err


def test_repro_offers_exactly_the_figures(capsys):
    assert list(FIGURES) == ['fig1', 'fig2', 'fig3', 'pgd-circle']
    with pytest.raises(SystemExit) as info:
        main(['repro', 'fig4'])
    assert info.value.code == 1
    assert "invalid choice: 'fig4'" in capsys.readouterr().err
