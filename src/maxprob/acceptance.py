"""Executable acceptance checks for the package's headline guarantees.

Each criterion is a standalone function returning a CriterionResult; the
CLI `check` subcommand and the test suite both run them, so a release gate
and an interactive audit cannot drift apart.  Every check that draws random
instances uses its own fixed seed, making failures reproducible verbatim.

Where a check needs an independent source of truth it builds one on the
spot: exhaustive enumeration over explicit sample spaces for the hard
bound, central finite differences for every analytic gradient, and closed
forms for the handful of cases small enough to do by hand.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import (
    check_extension_monotonicity,
    exhaustive_bound_oracle,
    max_probability,
    softmax_probability,
)
from .distributions import (
    FiniteDistribution,
    OutcomeRange,
    Parameterization,
    Refinement,
    apply_parameterization,
    make_distribution,
    uniform_distribution,
)
from .logspace import softmax
from .nn import (
    ToyNet,
    canonical_report_bytes,
    cross_entropy_loss,
    hn_forward,
    intersection_loss,
    loss_and_grads,
    make_toy_dataset,
    regularizer_bound,
    train,
)
from .objectives import (
    ObjectiveConfig,
    gradient_at_theta,
    likelihood_concentration_residual,
    values_at_thetas,
)
from .optimize import AscentConfig, ascend, finite_difference_check, grid_argmax

__all__ = ["CriterionResult", "CRITERIA", "run_all", "run_criterion"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: Optional[float]

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        budget = f"/{self.budget:g}s" if self.budget else ""
        return f"{status} {self.number:2d} {self.name}: {self.detail} ({self.seconds:.3f}s{budget})"


def _result(number: int, name: str, budget: Optional[float], started: float,
            ok: bool, detail: str) -> CriterionResult:
    elapsed = time.perf_counter() - started
    with_budget = ok and (budget is None or elapsed < budget)
    if ok and not with_budget:
        detail += f"; exceeded {budget:g}s budget"
    return CriterionResult(number, name, with_budget, detail, elapsed, budget)


def _coin() -> tuple[OutcomeRange, FiniteDistribution]:
    rng = OutcomeRange(("H", "T"))
    return rng, uniform_distribution(rng)


def criterion_01_coin_bounds() -> CriterionResult:
    """Hard bound on the two-outcome example, exact to 1e-15 relative."""
    t0 = time.perf_counter()
    rng, prior = _coin()
    sure = make_distribution(rng, [1.0, 0.0])
    tilted = make_distribution(rng, [0.9, 0.1])
    max_probability(prior, sure)  # warm the code path before timing
    t_in = time.perf_counter()
    b1 = max_probability(prior, sure)
    b2 = max_probability(prior, tilted)
    compute_ms = (time.perf_counter() - t_in) * 1e3
    e1 = abs(b1.value - 0.5) / 0.5
    e2 = abs(b2.value - 5.0 / 9.0) / (5.0 / 9.0)
    ok = e1 <= 1e-15 and e2 <= 1e-15 and compute_ms < 1.0
    detail = f"rel errs {e1:.1e}, {e2:.1e}; bound pair computed in {compute_ms:.3f}ms"
    return _result(1, "coin-flip bound values", 0.1, t0, ok, detail)


def _random_atom_space(rng: np.random.Generator):
    """Sample space with integer-weight atoms and a surjective outcome map."""
    n_atoms = int(rng.integers(2, 13))
    n_out = int(rng.integers(2, min(4, n_atoms) + 1))
    weights = rng.integers(1, 21, size=n_atoms).astype(float)
    atom_probs = weights / weights.sum()
    labels = [f"v{i}" for i in range(n_out)]
    assignment = np.concatenate([np.arange(n_out), rng.integers(0, n_out, size=n_atoms - n_out)])
    assignment = rng.permutation(assignment)
    vmap = [labels[a] for a in assignment]
    out_range = OutcomeRange(tuple(labels))
    marginal = np.zeros(n_out)
    for a, p in zip(assignment, atom_probs):
        marginal[a] += p
    prior = make_distribution(out_range, marginal)
    return atom_probs, assignment, vmap, out_range, prior


def criterion_02_bound_vs_enumeration() -> CriterionResult:
    """Enumeration over all events never beats the bound; degenerate targets attain it.

    Atom masses are integer weights over a common denominator, so distinct
    subsets induce distinct rationals and the oracle's 1e-9 match tolerance
    only absorbs division noise, never conflates different events.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst_gap = -np.inf
    worst_deg = 0.0
    for _ in range(200):
        atom_probs, assignment, vmap, out_range, prior = _random_atom_space(rng)
        n_atoms = len(atom_probs)
        # target induced by an actual event: enumeration must find at least it
        while True:
            mask = rng.integers(0, 2, size=n_atoms).astype(bool)
            if atom_probs[mask].sum() > 0:
                break
        sub_mass = np.zeros(len(out_range))
        for a, p, keep in zip(assignment, atom_probs, mask):
            if keep:
                sub_mass[a] += p
        event_prob = float(sub_mass.sum())
        conditional = make_distribution(out_range, sub_mass / event_prob)
        found = exhaustive_bound_oracle(atom_probs, vmap, conditional)
        bound = max_probability(prior, conditional)
        if found is None or found < event_prob - 1e-12:
            return _result(2, "bound vs enumeration", 30.0, t0, False,
                           "enumeration missed a planted event")
        worst_gap = max(worst_gap, found - bound.value)
        # degenerate conditional: the preimage of one outcome attains the bound
        v0 = int(rng.integers(0, len(out_range)))
        onehot = np.zeros(len(out_range))
        onehot[v0] = 1.0
        degenerate = make_distribution(out_range, onehot)
        found_deg = exhaustive_bound_oracle(atom_probs, vmap, degenerate)
        bound_deg = max_probability(prior, degenerate)
        if found_deg is None:
            return _result(2, "bound vs enumeration", 30.0, t0, False,
                           "enumeration missed a degenerate event")
        worst_gap = max(worst_gap, found_deg - bound_deg.value)
        worst_deg = max(worst_deg, abs(found_deg - bound_deg.value))
    ok = worst_gap <= 1e-12 and worst_deg <= 1e-9
    detail = f"200 spaces; max oracle-bound excess {worst_gap:.1e}; degenerate gap {worst_deg:.1e}"
    return _result(2, "bound vs enumeration", 30.0, t0, ok, detail)


def _random_distribution(rng: np.random.Generator, labels: tuple, allow_zeros: bool,
                         ) -> FiniteDistribution:
    n = len(labels)
    weights = rng.integers(1, 21, size=n).astype(float)
    if allow_zeros and n > 1:
        kill = rng.random(n) < 0.25
        if kill.all():
            kill[int(rng.integers(0, n))] = False
        weights[kill] = 0.0
    return make_distribution(OutcomeRange(labels), weights / weights.sum())


def criterion_03_refinement_monotonicity() -> CriterionResult:
    """Coarsening a variable can only loosen the bound, over 1000 random triples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2003)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        fine = OutcomeRange(tuple(f"f{i}" for i in range(n)))
        coarse = OutcomeRange(tuple(f"c{j}" for j in range(m)))
        assignment = rng.permutation(
            np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)]))
        ref = Refinement(fine, coarse, tuple(coarse.labels[a] for a in assignment))
        prior = _random_distribution(rng, fine.labels, allow_zeros=True)
        conditional = _random_distribution(rng, fine.labels, allow_zeros=True)
        report = check_extension_monotonicity(prior, conditional, ref)
        if not report.holds:
            return _result(3, "refinement tightens the bound", 5.0, t0, False,
                           f"violated: fine {report.fine.log_max_probability!r} "
                           f"vs coarse {report.coarse.log_max_probability!r}")
        if np.isfinite(report.fine.log_max_probability):
            worst = max(worst, report.fine.log_max_probability
                        - report.coarse.log_max_probability)
    return _result(3, "refinement tightens the bound", 5.0, t0, True,
                   f"1000 triples; max fine-minus-coarse log gap {worst:.1e}")


def criterion_04_soft_bound_chain() -> CriterionResult:
    """Soft bounds stay below the hard bound, rise with alpha, and converge to it."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2004)
    alphas = (0.5, 1.0, 2.0, 4.0, 16.0, 256.0)
    worst_excess = -np.inf
    worst_drop = -np.inf
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        labels = tuple(f"v{i}" for i in range(n))
        prior = _random_distribution(rng, labels, allow_zeros=False)
        conditional = _random_distribution(rng, labels, allow_zeros=True)
        hard = max_probability(prior, conditional).log_max_probability
        prev = -np.inf
        for a in alphas:
            soft = softmax_probability(prior, conditional, a)
            worst_excess = max(worst_excess, soft - hard)
            worst_drop = max(worst_drop, prev - soft)
            prev = soft
        near = softmax_probability(prior, conditional, 1e4)
        worst_rel = max(worst_rel, abs(np.exp(near) - np.exp(hard)) / np.exp(hard))
    ok = worst_excess <= 1e-12 and worst_drop <= 1e-12 and worst_rel <= 1e-3
    detail = (f"1000 instances; max soft-over-hard {worst_excess:.1e}; "
              f"max alpha-monotonicity violation {worst_drop:.1e}; "
              f"alpha=1e4 max rel gap {worst_rel:.1e}")
    return _result(4, "soft bound ordering and limit", 10.0, t0, ok, detail)


def criterion_05_gradients_match_fd() -> CriterionResult:
    """Analytic gradients against central differences, every objective cell.

    Instances with a gradient coordinate under 1e-3 are redrawn: central
    differences lose relative accuracy near critical points, and the check
    audits formula correctness, not difference-quotient conditioning.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(2005)
    alphas = (0.5, 1.0, 2.0, 4.0, 8.0)
    worst = 0.0
    cells = 0
    for kind in ("likelihood", "intersection"):
        for assumption in ("cond-independent", "oracle-subset"):
            for param_kind in ("sigmoid", "softmax"):
                done = 0
                while done < 100:
                    if param_kind == "sigmoid":
                        p = Parameterization.sigmoid_bernoulli()
                    else:
                        p = Parameterization.softmax_logits(int(rng.integers(2, 7)))
                    theta = rng.normal(scale=1.5, size=p.dim)
                    oracle = apply_parameterization(p, rng.normal(scale=1.5, size=p.dim))
                    if rng.random() < 0.5:
                        prior = uniform_distribution(p.range)
                    else:
                        prior = _random_distribution(rng, p.range.labels, allow_zeros=False)
                    config = ObjectiveConfig(kind, assumption, float(rng.choice(alphas)), prior)
                    analytic = gradient_at_theta(config, oracle, p, theta).d_theta
                    if np.min(np.abs(analytic)) < 1e-3:
                        continue
                    worst = max(worst, finite_difference_check(config, oracle, p, theta))
                    done += 1
                cells += 1
    ok = worst <= 1e-6
    return _result(5, "analytic gradients match finite differences", 30.0, t0, ok,
                   f"{cells} cells x 100 instances; max relative error {worst:.1e}")


def criterion_06_alpha1_equivalence() -> CriterionResult:
    """At alpha = 1 with a uniform prior, intersection minus likelihood is constant."""
    t0 = time.perf_counter()
    p = Parameterization.sigmoid_bernoulli()
    prior = uniform_distribution(p.range)
    oracle = apply_parameterization(p, 1.2)
    lik = ObjectiveConfig("likelihood", "cond-independent", 1.0, prior)
    inter = ObjectiveConfig("intersection", "cond-independent", 1.0, prior)
    grid = np.linspace(-6.0, 6.0, 100)[:, np.newaxis]
    diffs = values_at_thetas(inter, oracle, p, grid) - values_at_thetas(lik, oracle, p, grid)
    spread = float(np.max(diffs) - np.min(diffs))
    ok = spread <= 1e-9
    return _result(6, "alpha=1 intersection equals likelihood up to a constant", 1.0, t0,
                   ok, f"100-point grid; offset spread {spread:.1e}")


def criterion_07_oracle_recovery() -> CriterionResult:
    """Ascent on intersection at alpha = 2 recovers the oracle parameter."""
    t0 = time.perf_counter()
    p = Parameterization.sigmoid_bernoulli()
    prior = uniform_distribution(p.range)
    target = float(np.log(9.0))
    oracle = apply_parameterization(p, target)
    config = ObjectiveConfig("intersection", "cond-independent", 2.0, prior)
    trace = ascend(config, oracle, p, 0.0,
                   AscentConfig(step_size=1.0, max_iters=10000, grad_tol=1e-10))
    err = abs(float(trace.final_theta[0]) - target)
    grid = -6.0 + np.arange(12001) * 0.001
    best = grid_argmax(lambda g: values_at_thetas(config, oracle, p, g[:, np.newaxis]), grid)
    grid_err = abs(best.theta - target)
    ok = trace.status == "converged" and err <= 1e-4 and grid_err <= 0.001
    detail = (f"{trace.status} after {trace.iterations} iterations, |theta - log 9| = {err:.1e}; "
              f"grid argmax off by {grid_err:.1e}")
    return _result(7, "intersection alpha=2 recovers the oracle", 10.0, t0, ok, detail)


def criterion_08_likelihood_concentration() -> CriterionResult:
    """Likelihood ascent concentrates the model on the oracle's best outcomes."""
    t0 = time.perf_counter()
    p = Parameterization.sigmoid_bernoulli()
    prior = uniform_distribution(p.range)
    oracle = make_distribution(p.range, [1.0, 0.0])
    config = ObjectiveConfig("likelihood", "cond-independent", 1.0, prior)
    trace = ascend(config, oracle, p, 0.0, AscentConfig(step_size=0.2, max_iters=10000))
    residuals = np.array([
        likelihood_concentration_residual(apply_parameterization(p, th), oracle, prior)
        for th in trace.thetas
    ])
    final = float(residuals[-1])
    monotone = bool(np.all(np.diff(residuals) <= 1e-12))
    ok = final < 1e-3 and monotone
    detail = (f"{trace.iterations} iterations; final residual {final:.2e}; "
              f"residual monotone: {monotone}")
    return _result(8, "likelihood ascent concentrates mass", 10.0, t0, ok, detail)


def criterion_09_head_identities() -> CriterionResult:
    """Generalized head equals softmax at alpha=1; hand values; loss collapse."""
    t0 = time.perf_counter()
    x = np.array([1.0, 0.0])
    bitwise = np.array_equal(hn_forward(x, 1.0), softmax(x))
    expected = np.array([np.e / (np.e ** 2 + 1.0), 1.0 / (np.e ** 2 + 1.0)])
    hand = float(np.max(np.abs(hn_forward(x, 2.0) - expected)))
    rng = np.random.default_rng(2009)
    ce_gap = 0.0
    for _ in range(20):
        logits = rng.normal(scale=3.0, size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        ce_gap = max(ce_gap, abs(intersection_loss(logits, labels, 1.0)
                                 - cross_entropy_loss(logits, labels)))
    ok = bitwise and hand <= 1e-12 and ce_gap <= 1e-12
    detail = (f"alpha=1 bitwise softmax: {bitwise}; hand value gap {hand:.1e}; "
              f"alpha=1 loss vs cross entropy gap {ce_gap:.1e}")
    return _result(9, "generalized head identities", 1.0, t0, ok, detail)


def criterion_10_toy_backprop() -> CriterionResult:
    """Hand-written backprop against finite differences on every tensor."""
    t0 = time.perf_counter()
    data = make_toy_dataset(seed=11)
    x5, y5 = data.train_x[:5], data.train_y[:5]
    worst = 0.0
    for mode, alpha, lam in (("intersection", 2.0, 0.0), ("intersection", 4.0, 0.0),
                             ("ce-l2", 1.0, 0.01)):
        net = ToyNet(seed=1)
        _, grads, _ = loss_and_grads(net, x5, y5, mode, alpha, lam)
        h = 1e-5
        for name in net.PARAM_ORDER:
            w = net.params[name]
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = float(w[i])
                w[i] = orig + h
                up = loss_and_grads(net, x5, y5, mode, alpha, lam)[0]
                w[i] = orig - h
                dn = loss_and_grads(net, x5, y5, mode, alpha, lam)[0]
                w[i] = orig
                fd = (up - dn) / (2.0 * h)
                g = float(grads[name][i])
                worst = max(worst, abs(fd - g) / max(1e-8, abs(fd), abs(g)))
    ok = worst <= 1e-5
    return _result(10, "toy network backprop matches finite differences", 60.0, t0, ok,
                   f"3 loss settings, all tensors; max relative error {worst:.1e}")


def criterion_11_toy_training(artifacts_dir: Optional[str] = None) -> CriterionResult:
    """Seeded training runs improve, respect the regularizer bound, and reproduce."""
    t0 = time.perf_counter()
    data = make_toy_dataset(seed=11)
    k = data.k
    problems = []
    reports = {}
    for alpha in (1.0, 2.0, 4.0):
        net = ToyNet(seed=5)
        rep = train(net, data, "intersection", alpha=alpha, epochs=200, step=0.05,
                    seed=0, net_seed=5, data_seed=11)
        reports[alpha] = rep
        if not rep.records[-1].train_loss < rep.records[0].train_loss:
            problems.append(f"alpha={alpha:g} loss did not decrease")
        bound = regularizer_bound(k, alpha)
        for rec in rep.records:
            if not -1e-12 <= rec.reg_term <= bound + 1e-12:
                problems.append(f"alpha={alpha:g} reg {rec.reg_term!r} outside [0, {bound!r}]")
                break
    rerun = train(ToyNet(seed=5), make_toy_dataset(seed=11), "intersection", alpha=2.0,
                  epochs=200, step=0.05, seed=0, net_seed=5, data_seed=11)
    if canonical_report_bytes(rerun) != canonical_report_bytes(reports[2.0]):
        problems.append("identical seeds produced different reports")
    baseline = train(ToyNet(seed=5), data, "ce-l2", lam=1e-3, epochs=200, step=0.05,
                     seed=0, net_seed=5, data_seed=11)
    if artifacts_dir is not None:
        import os
        os.makedirs(artifacts_dir, exist_ok=True)
        path = os.path.join(artifacts_dir, "toy_training_curves.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["mode", "alpha", "epoch", "train_loss", "test_loss",
                        "train_acc", "test_acc", "reg_term"])
            for rep in list(reports.values()) + [baseline]:
                for r in rep.records:
                    w.writerow([rep.mode, rep.alpha, r.epoch, r.train_loss, r.test_loss,
                                r.train_acc, r.test_acc, r.reg_term])
    ok = not problems
    detail = "; ".join(problems) if problems else (
        "alpha in {1,2,4} all improved, regularizer within bound, reports byte-identical"
        + ("; curves written" if artifacts_dir else ""))
    return _result(11, "toy training behaves and reproduces", 120.0, t0, ok, detail)


def criterion_12_reproducible_outputs() -> CriterionResult:
    """Fixed-seed invocations of every emitting subcommand are byte-identical."""
    import tempfile
    from . import cli

    t0 = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        import json
        import os
        prior_path = os.path.join(tmp, "prior.json")
        cond_path = os.path.join(tmp, "cond.json")
        bern_path = os.path.join(tmp, "bern.json")
        with open(prior_path, "w") as fh:
            json.dump({"range": ["H", "T"], "probs": [0.5, 0.5]}, fh)
        with open(cond_path, "w") as fh:
            json.dump({"range": ["H", "T"], "probs": [0.9, 0.1]}, fh)
        with open(bern_path, "w") as fh:
            json.dump({"range": ["1", "0"], "probs": [0.9, 0.1]}, fh)
        invocations = {
            "bound": ["bound", "--prior", prior_path, "--conditional", cond_path],
            "soft-bound": ["soft-bound", "--alpha", "4", "--prior", prior_path,
                           "--conditional", cond_path],
            "skeleton": ["skeleton", "--alpha", "2", "--dist", cond_path],
            "objective": ["objective", "--kind", "intersection", "--assumption",
                          "cond-independent", "--alpha", "2", "--model", cond_path,
                          "--oracle", cond_path, "--prior", prior_path],
            "optimize": ["optimize", "--kind", "intersection", "--assumption",
                         "cond-independent", "--alpha", "2", "--oracle", bern_path,
                         "--param", "sigmoid", "--theta0", "0", "--step", "1.0",
                         "--max-iters", "50"],
            "sweep-bernoulli": ["sweep-bernoulli", "--theta-star", "2.1972245773362196",
                                "--grid-min", "-2", "--grid-max", "2", "--grid-step", "0.1",
                                "--alphas", "1,2"],
            "train-toy": ["train-toy", "--loss", "intersection", "--alpha", "2",
                          "--epochs", "5", "--seed", "7"],
        }
        import contextlib
        import io
        for name, argv in invocations.items():
            outputs = []
            for run in (0, 1):
                out_path = os.path.join(tmp, f"{name}.{run}.out")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.dispatch(argv + ["--out", out_path])
                if code != 0:
                    problems.append(f"{name} exited {code}")
                    break
                with open(out_path, "rb") as fh:
                    outputs.append(fh.read())
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                problems.append(f"{name} output differs between identical runs")
    ok = not problems
    detail = "; ".join(problems) if problems else \
        f"{len(invocations)} subcommands byte-identical across repeated runs"
    return _result(12, "seeded outputs reproduce byte-for-byte", 60.0, t0, ok, detail)


CRITERIA: tuple[tuple[int, Callable[[], CriterionResult]], ...] = (
    (1, criterion_01_coin_bounds),
    (2, criterion_02_bound_vs_enumeration),
    (3, criterion_03_refinement_monotonicity),
    (4, criterion_04_soft_bound_chain),
    (5, criterion_05_gradients_match_fd),
    (6, criterion_06_alpha1_equivalence),
    (7, criterion_07_oracle_recovery),
    (8, criterion_08_likelihood_concentration),
    (9, criterion_09_head_identities),
    (10, criterion_10_toy_backprop),
    (11, criterion_11_toy_training),
    (12, criterion_12_reproducible_outputs),
)


def run_criterion(number: int, artifacts_dir: Optional[str] = None) -> CriterionResult:
    for num, fn in CRITERIA:
        if num == number:
            if num == 11:
                return fn(artifacts_dir)  # type: ignore[call-arg]
            return fn()
    raise KeyError(f"no criterion {number}")


def run_all(artifacts_dir: Optional[str] = None) -> list[CriterionResult]:
    return [run_criterion(num, artifacts_dir) for num, _ in CRITERIA]
