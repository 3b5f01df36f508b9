"""Golden digests: sha256 of small-budget outputs at fixed seeds.

Determinism tests elsewhere compare reruns of one version; these pin the
bytes across versions, so a refactor that claims "same behaviour" is checked.
A change that alters any of these outputs on purpose updates its digest here
and says why in CHANGES.md.

Reports are hashed as `to_json()`. Other outputs are hashed as JSON with
Python's shortest round-trip float repr, which is exact to the bit.
"""

import hashlib
import json

import numpy as np
import pytest

from furstlab import (PipelineBudget, System, certify, check_proximality,
                      delta_estimate, diophantine_probe,
                      exp_boundary_convergence, exp_direction_cocycle,
                      exp_linearization_check,
                      exp_main_theorem, exp_projection_entropy,
                      exp_uniform_entropy_dim, get_preset,
                      lyapunov_estimate, random_walk_entropy,
                      sample_boundary, sample_word)
from furstlab.dyadic import uniform_square
from furstlab.sl2 import exact_matrix


def _plain(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _main_theorem(name):
    def run():
        return exp_main_theorem(get_preset(name),
                                PipelineBudget().small(8192), seed=7).to_json()
    return run


def _certify_exact():
    upper_pair = System.from_exact(
        (exact_matrix([2, 0, 1, 0, 0, 0, "1/2", 0]),
         exact_matrix([3, 0, 1, 0, 0, 0, "1/3", 0])), (0.5, 0.5), "upper-pair")
    systems = [get_preset(name) for name in
               ("sanov", "discrete-gaussian", "inverse-pair")] + [upper_pair]
    return _plain([certify(s).to_dict() for s in systems])


def _delta_ladder():
    lad = delta_estimate(get_preset("twist"), q_max=8, count=8192, seed=3)
    return _plain([lad.rows, lad.letter_entropy, lad.samples])


def _boundary_cloud(name, transpose=False):
    def run():
        sys_ = get_preset(name)
        cloud = sample_boundary(sys_.transposed() if transpose else sys_,
                                count=8192, seed=3)
        rows = cloud.measure.points
        return _plain([rows.real.tolist(), rows.imag.tolist(),
                       cloud.first_letters.tolist(), cloud.stop_chi.tolist(),
                       cloud.steps.tolist()])
    return run


def _hrw(name, n_max):
    def run():
        t = random_walk_entropy(get_preset(name), n_max)
        return _plain([t.rows, t.h_rw_estimate, t.free, t.letter_entropy,
                       t.ambiguity_warning])
    return run


def _dio(name, n_max):
    def run():
        r = diophantine_probe(get_preset(name), n_max)
        return _plain([r.rows, r.fitted_c, r.collisions_total,
                       r.branch_pairs_total])
    return run


def _uniform_entropy_dim():
    return exp_uniform_entropy_dim(
        uniform_square(40_000, seed=4), m=4, levels=(1, 3), seed=5,
        comps_per_level=16, min_component_points=200).to_json()


def _projection_entropy():
    return exp_projection_entropy(
        uniform_square(20_000, seed=1), m=4, levels=(2, 4), directions=24,
        seed=2, comps_per_level=12).to_json()


def _linearization():
    return exp_linearization_check(k=6, theta_count=128, xi_count=512,
                                   seed=2).to_json()


def _direction_cocycle():
    return exp_direction_cocycle(get_preset("twist"), n=800, trials=3,
                                 seed=4).to_json()


def _boundary_convergence():
    # n = 8 and 9 end on and just past a renormalisation of the walks
    return exp_boundary_convergence(get_preset("twist"), n_values=(8, 9, 30),
                                    trials=1024, seed=7).to_json()


def _lyapunov():
    ly = lyapunov_estimate(get_preset("twist"), n=700, trials=300, seed=7)
    return _plain([[e.value, e.stderr, e.trials, e.method]
                   for e in (ly.op_norm, ly.telescoped)])


def _proximality(*names):
    def run():
        out = []
        for name in names:
            r = check_proximality(get_preset(name),
                                  rng=np.random.default_rng(11))
            trace = None if r.strict_trace is None else [r.strict_trace.real,
                                                         r.strict_trace.imag]
            out.append([r.status, r.max_log2_norm, r.steps, r.strict,
                        r.strict_witness, trace])
        return _plain(out)
    return run


def _sampled_words():
    twist = get_preset("twist")
    rng = np.random.default_rng(9)
    passage = [sample_word(twist, rng, first_passage=(1, 2, 12))
               for _ in range(200)]
    fixed = [sample_word(twist, rng, length=12) for _ in range(50)]
    return _plain([passage, fixed])


CASES = {
    "main-theorem": _main_theorem("twist"),
    "main-theorem-sanov": _main_theorem("sanov"),
    "certify-exact": _certify_exact,
    "boundary-cloud-twist": _boundary_cloud("twist"),
    "boundary-cloud-twist-transpose": _boundary_cloud("twist", transpose=True),
    "boundary-cloud-sanov": _boundary_cloud("sanov"),
    "boundary-cloud-discrete-gaussian": _boundary_cloud("discrete-gaussian"),
    "delta-ladder": _delta_ladder,
    "boundary-convergence": _boundary_convergence,
    "direction-cocycle": _direction_cocycle,
    "proximality": _proximality("twist", "su2-control"),
    "sampled-words": _sampled_words,
    "proximality-exact": _proximality("sanov", "discrete-gaussian"),
    "hrw-sanov": _hrw("sanov", 8),
    "hrw-twist": _hrw("twist", 6),
    "hrw-twist-8": _hrw("twist", 8),
    "lyapunov": _lyapunov,
    "hrw-inverse-pair-9": _hrw("inverse-pair", 9),
    "dio-sanov": _dio("sanov", 6),
    "dio-twist": _dio("twist", 4),
    "dio-discrete-gaussian": _dio("discrete-gaussian", 5),
    "dio-inverse-pair-6": _dio("inverse-pair", 6),
    "uniform-entropy-dim": _uniform_entropy_dim,
    "projection-entropy": _projection_entropy,
    "linearization": _linearization,
}

DIGESTS = {
    "boundary-cloud-discrete-gaussian": "700fdb43259c51c325bdc834aa6b2618fd03ea63ee0e77c74bff6e9c68236317",
    "boundary-cloud-sanov": "1429f68acf3c6ddd9a4ba3a2bb74f26363ab4ccc79eae245d835cdfc812fa7c9",
    "boundary-cloud-twist": "0da8ba9f6eb94b6dbfe288664979094ecda93b6968a22c1461f6ebb9edec4f93",
    "boundary-cloud-twist-transpose": "e87969822cc3b7127f85247974f2ce375f4d73adc081a88dac4183507ebb5f64",
    "boundary-convergence": "b706784530c40750274ac938eb9c4791c9775775a3d4b7a3e218f14a5de5cc4e",
    "certify-exact": "868cfd099444f4f7c496e28cb5cdfcc5dcafc3597daba35e3cc7dc91591a86ac",
    "delta-ladder": "615004025ed190c86f48e7ac806587791eec49d080c0388667ff05b87ceb4a83",
    "direction-cocycle": "16a4c08344bdc3a18fac2a6ccb0a70be32ad0fa883b625ccaa3000d280dd632e",
    "dio-sanov": "ebdc5343ebe09f7af5824e7e817b4bfbb4eb8b445afcff46b860814a5a83666d",
    "dio-discrete-gaussian": "f95ad50731dc5d2532fe913a322bd1d5fd5c108fb631ba84b125824c467318f7",
    "dio-inverse-pair-6": "7bec8cbbd236779ced50b825ba2ed44b91a40d9e11d0058f3fb65b4e383f5ede",
    "dio-twist": "75bc2e94f2251df13a128ff6c67e116ab37e5ca07c53b7dd002bc59b792d6490",
    "hrw-sanov": "cd788fa4102562fe176a4dc12cdf8ec05d7a7dc176d0d3f6b9ba3bed58fc1db5",
    "hrw-twist": "87ed36aaadbb70adf516a2c6282632618f4c933aa7d0e73c88acb317bd539a02",
    "hrw-inverse-pair-9": "9b819f0ef9c62ffd3daaec2129d3bad1f247801820de9593a386e76a2a2b5693",
    "hrw-twist-8": "52c1895f565301e611a9d5773f7e659e412c788ad4a35842b4b27c8413b03697",
    "lyapunov": "a203e3d3dbbb640831885742196599c8c95f780db8f41d38d4e05144abae73bb",
    "linearization": "bf9cac264489180398876911c16744aa8f1bc643bcec395a0c503fd20bc49cb9",
    "main-theorem": "886d1dc04df436d3bf94838b91d105a388ef15cb7ae8c937a5c62323a880e37e",
    "main-theorem-sanov": "437ea16ee663b6d736590896cba2de0955b6be300faabc2a278dfad48003cb59",
    "projection-entropy": "54dac98734eb150b47136110f27e9903ff6c7ab3f319a4c71a967dd796a84410",
    "proximality": "19efc2923b1fba2babda2bf303c38024c65071d2f3e8f8162306a9932e86aef3",
    "proximality-exact": "f9577404db6df1da5aebf19d62f0b8619b36182c0c4721665b845460f453ab60",
    "sampled-words": "c4be251e2b9499ddd3a00488352cd11bb3905d47accee48fe074c6a001574237",
    "uniform-entropy-dim": "2bb47b24ad39d7366ee84515617465315fb3876368d21cb35473c72885146b9d",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    text = CASES[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
