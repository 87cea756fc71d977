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
    (nystrom, 'diffusion_map'),
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


#: What ``import onmanifold`` offers: the error classes, the types a caller
#: receives or implements, and the functions the CLI, the PGD loop and the
#: acceptance suite call.
EXPORTS = {
    'GeometryError', 'InvalidQueryError', 'DuplicatePointError', 'EigensolverFailure',
    'DisconnectedGraphError', 'SmallEigenvalueError', 'KnnBoundaryError',
    'DegenerateFrameError', 'SingularGramError', 'RankDeficiencyError', 'StalledError',
    'PointCloud', 'CidmConfig', 'CidmModel', 'knn_scales', 'fit',
    'NystromProjector', 'extend_eigenfunction', 'eigenfunction_values',
    'fourier_coefficients', 'extend_function', 'build_projector', 'project',
    'project_many', 'grad_eigenfunction', 'restricted_loss_gradient',
    'SecBasisConfig', 'SecFrame', 'structure_constants', 'metric_tensor',
    'dirichlet_energy_tensor', 'build_sec_frame', 'field_arrows', 'tangent_frame_at',
    'local_pca_tangent',
    'ClassifierOracle', 'SectorClassifier', 'sector_classifier', 'SemanticMap',
    'semantic_map', 'semantic_labels', 'PgdConfig', 'PgdStep', 'PgdTrace', 'om_pgd',
    'SynthSpec', 'generate', 'fig1_target_function', 'periodic_flags',
    'ModelBundle', 'save_bundle', 'load_bundle',
}


def test_package_exports_exactly_the_expected_names():
    exported = {name for name, value in vars(om).items()
                if not name.startswith('_') and not inspect.ismodule(value)}
    assert len(EXPORTS) == 52
    assert exported == EXPORTS


@pytest.mark.parametrize('module, name', [
    (cidm, 'inner'), (nystrom, 'diffusion_map_jacobian'), (sec, 'sobolev_basis'),
    (sec, 'eigenfields'), (sec, 'field_operator'), (ompgd, 'om_pgd_step'),
])
def test_helpers_stay_in_their_modules(module, name):
    assert not hasattr(om, name)
    assert name in module.__all__


def test_pgd_config_has_exactly_three_settings():
    assert [f.name for f in dataclasses.fields(om.PgdConfig)] == [
        'alpha', 'max_steps', 'tangent_dim']


def test_sector_classifier_has_two_settings():
    assert [f.name for f in dataclasses.fields(om.SectorClassifier)] == [
        'n_classes', 'boundary_offset_deg']
    assert ompgd.SECTOR_KAPPA == 8.0


@pytest.mark.parametrize('flag', [['--normalize'], ['--no-normalize'],
                                  ['--project-iters', '2']])
def test_pgd_has_no_normalize_or_project_iters_flags(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(['pgd', str(tmp_path / 'model.bundle'), '--start-index', '0', '--alpha', '0.1',
              '--out', str(tmp_path / 'trace.jsonl'), *flag])
    assert info.value.code == 1
    assert f'unrecognized arguments: {" ".join(flag)}' in capsys.readouterr().err


def test_field_operator_has_no_m_out():
    assert 'm_out' not in inspect.signature(sec.field_operator).parameters


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
