"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single summary line with the
measured quantities so `pytest -v` doubles as the acceptance report.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from oodkit.cli import EXIT_OK, main as cli_main
from oodkit.core import (
    FeatureMatrix,
    SoftmaxHead,
    decompose,
    save_features,
    save_head,
    softmax,
)
from oodkit.estimators import (
    grad_u_density,
    grad_u_entropy,
    grad_u_max,
    u_max,
    u_mental,
)
from oodkit.errors import ArgmaxTieError
from oodkit.geometry import (
    empirical_threshold,
    fit_linear_region,
    mc_region_mass,
    solve_alpha_exact_k2,
)
from oodkit.gmm import EmConfig, GaussianMixture, fit_em
from oodkit.metrics import attribute, auroc
from oodkit.refnet import run_counterfactual, run_depth_study
from oodkit.structure import (
    OptimalStructureSpec,
    gen_counterfactual_head,
    gen_optimal_head,
    synthesize_cluster_features,
)


def _report(name, detail):
    print(f"\n[acceptance] {name}: PASS — {detail}")


class TestAcceptance:

    def test_01_counterexample_values_and_monotonicity_violation(self):
        t0 = time.perf_counter()
        head = gen_counterfactual_head("sandwich", k=3, h=2, c=1.0)
        z1 = np.array([1.0, 0.0])
        z2 = np.array([0.9, -0.44])
        p1 = float(softmax(head, z1).max())
        p2 = float(softmax(head, z2).max())
        assert p1 == pytest.approx(0.665, abs=1e-3)
        assert p2 == pytest.approx(0.700, abs=1e-3)
        # z1 is better aligned with its nearest weight vector yet scores
        # as more uncertain: the cosine monotonicity property fails here
        mc1 = decompose(head, z1).cos_theta.max()
        mc2 = decompose(head, z2).cos_theta.max()
        assert mc1 > mc2
        assert u_max(head, z1).value > u_max(head, z2).value
        dt = time.perf_counter() - t0
        assert dt < 1.0
        _report("criterion 1",
                f"max-softmax {p1:.4f}/{p2:.4f} (targets 0.665/0.700), "
                f"max_cos {mc1:.3f}>{mc2:.3f} with higher uncertainty, {dt:.2f}s")

    def test_02_attribution_arithmetic(self):
        rep = attribute(0.920, 0.963, 0.963, 0.995)
        assert rep.cause1 == pytest.approx(0.000, abs=1e-12)
        assert rep.cause2 == pytest.approx(0.032, abs=1e-12)
        assert rep.cause3 == pytest.approx(0.005, abs=1e-12)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            a, b, c, d = rng.uniform(0.0, 1.0, 4)
            r = attribute(a, b, c, d)
            worst = max(worst, abs((r.cause1 + r.cause2 + r.cause3) - (1.0 - b)))
        assert worst < 1e-12
        _report("criterion 2",
                f"causes (0.0%, 3.2%, 0.5%) reproduced; identity residual "
                f"max {worst:.1e} over 1000 rows")

    def test_03_optimal_structure_exactness(self):
        t0 = time.perf_counter()
        worst = 0.0
        for k in (2, 3, 5, 10, 50):
            head = gen_optimal_head(OptimalStructureSpec(k=k, h=k - 1), seed=k)
            norms = head.column_norms()
            unit = head.w / norms
            gram = unit.T @ unit
            iu = np.triu_indices(k, k=1)
            worst = max(worst,
                        float(np.abs(gram[iu] + 1.0 / (k - 1)).max()),
                        float(np.abs(norms - 1.0).max()),
                        float(np.abs(head.w.sum(axis=1)).max()))
        assert worst < 1e-10
        dt = time.perf_counter() - t0
        assert dt < 1.0
        _report("criterion 3",
                f"K in (2,3,5,10,50): worst deviation {worst:.1e} "
                f"(cosines, norms, zero-sum), {dt:.2f}s")

    def test_04_exact_slab_vs_monte_carlo_quantile_oracle(self):
        t0 = time.perf_counter()
        w1 = np.array([1.2, -0.4])
        head = SoftmaxHead(w=np.stack([w1, -w1], axis=1), b=np.zeros(2))
        wh = w1 / np.linalg.norm(w1)
        model = GaussianMixture([0.5, 0.5], [3.5 * wh, -3.5 * wh],
                                [0.5 * np.eye(2)] * 2)
        eps = 0.05
        region = solve_alpha_exact_k2(model, head, eps)

        # oracle: empirical (1 - eps) quantile of u_max over 1e6 samples,
        # converted to a slab half-width through the two-class sigmoid
        n = 1_000_000
        z = model.sample(n, np.random.default_rng(404))
        p = softmax(head, z[0])  # touch single-sample path once
        assert p.shape == (2,)
        ell = z @ head.w
        pm = np.exp(ell - ell.max(axis=1, keepdims=True))
        pm /= pm.sum(axis=1, keepdims=True)
        u_star = empirical_threshold(-pm.max(axis=1), eps)
        p_star = -u_star
        nsq = float(w1 @ w1)
        alpha_mc = np.log(p_star / (1.0 - p_star)) / (2.0 * nsq)
        rel = abs(region.alpha_hi - alpha_mc) / alpha_mc
        assert rel < 1e-2

        mass = mc_region_mass(region.contains, model, n=n, seed=505)
        sigma = np.sqrt(eps * (1.0 - eps) / n)
        dev = abs(mass - eps) / sigma
        assert dev < 3.0
        dt = time.perf_counter() - t0
        assert dt < 30.0
        _report("criterion 4",
                f"alpha {region.alpha_hi:.5f} vs MC oracle {alpha_mc:.5f} "
                f"(rel {rel:.1e} < 1e-2); slab mass {mass:.5f} = eps within "
                f"{dev:.2f} MC sigma, {dt:.1f}s")

    def test_05_linear_region_members_exceed_threshold(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        total = violations = 0
        per_k = 100_000 // 3 + 1
        for k in (3, 4, 5):
            h = k  # one spare dimension
            w = rng.standard_normal((h, k))
            head = SoftmaxHead(w=w, b=np.zeros(k))
            feats, _ = synthesize_cluster_features(head, c3=3.0,
                                                   n_per_class=200, noise=0.4,
                                                   seed=k)
            region = fit_linear_region(head, feats, 0.05)
            kept = []
            while sum(len(c) for c in kept) < per_k:
                # draw points directly inside a random pair's slab, then keep
                # those the full region accepts (argmax-cell intersection)
                pair = list(region.slabs)[rng.integers(len(region.slabs))]
                slab = region.slabs[pair]
                n_vec = slab.normal
                nsq = float(n_vec @ n_vec)
                x = 6.0 * rng.standard_normal((4000, h))
                g = (x - slab.anchor) @ n_vec
                x = x - np.outer(g / nsq, n_vec)  # project onto the boundary
                eta = rng.uniform(-slab.alpha_lo, slab.alpha_hi, 4000)
                x = x + np.outer(eta, n_vec)
                x = x[region.contains(x)]
                if len(x):
                    kept.append(x)
            pts = np.concatenate(kept)[:per_k]
            vals = -np.max(
                np.exp((ell := pts @ head.w) - ell.max(axis=1, keepdims=True))
                / np.exp(ell - ell.max(axis=1, keepdims=True)).sum(
                    axis=1, keepdims=True), axis=1)
            violations += int(np.sum(vals <= region.u_star))
            total += len(pts)
        assert total >= 100_000
        assert violations == 0
        dt = time.perf_counter() - t0
        assert dt < 60.0
        _report("criterion 5",
                f"{total} in-region samples across K=3,4,5; "
                f"{violations} threshold violations, {dt:.1f}s")

    def test_06_property_suites_thousand_trials_each(self):
        rng = np.random.default_rng(2024)
        # suite A: shrinking ||z|| never lowers u_max (zero-bias heads)
        bad = 0
        for _ in range(1000):
            k, h = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            head = SoftmaxHead(w=rng.standard_normal((h, k)), b=np.zeros(k))
            z = rng.standard_normal(h) * rng.uniform(0.5, 5.0)
            if np.ptp(head.w.T @ z) < 1e-9:
                continue
            s = rng.uniform(0.01, 0.99)
            bad += u_max(head, s * z).value <= u_max(head, z).value
        assert bad == 0

        # suite B: rotating toward the nearest weight lowers u_max under
        # optimal heads (K=2 and K=3, planar parameterization)
        bad = 0
        head2 = gen_optimal_head(OptimalStructureSpec(k=2, h=2), seed=1)
        head3 = gen_optimal_head(OptimalStructureSpec(k=3, h=2), seed=1)
        for head, t_max in ((head2, np.pi / 2 - 1e-6), (head3, np.pi / 3)):
            w1 = head.w[:, 0] / np.linalg.norm(head.w[:, 0])
            perp = np.array([-w1[1], w1[0]])
            for _ in range(500):
                r = rng.uniform(0.5, 4.0)
                t1, t2 = np.sort(rng.uniform(0.0, t_max, 2))
                if t2 - t1 < 1e-9:
                    continue
                za = r * (np.cos(t1) * w1 + np.sin(t1) * perp)
                zb = r * (np.cos(t2) * w1 + np.sin(t2) * perp)
                bad += u_max(head, za).value >= u_max(head, zb).value
        assert bad == 0

        # suite C: EM log-likelihood is non-decreasing
        bad = 0
        for trial in range(1000):
            n = int(rng.integers(25, 45))
            x = rng.standard_normal((n, 2)) * rng.uniform(0.5, 2.0) \
                + rng.integers(-2, 3, size=2)
            k = int(rng.integers(1, 3))
            cfg = EmConfig(seed=trial, init="kmeans_pp", max_iter=15)
            _, hist = fit_em(FeatureMatrix(x), k_components=k, cfg=cfg,
                             return_history=True)
            bad += int(np.any(np.diff(hist) < -1e-9))
        assert bad == 0

        # suite D: rank AUROC equals the O(n^2) definition
        bad = 0
        for _ in range(1000):
            s_in = rng.standard_normal(int(rng.integers(2, 25)))
            s_out = rng.standard_normal(int(rng.integers(2, 25)))
            if rng.random() < 0.3:
                s_out[0] = s_in[0]
            brute = np.mean([
                1.0 if o > i else (0.5 if o == i else 0.0)
                for o in s_out for i in s_in])
            bad += abs(auroc(s_in, s_out) - brute) > 1e-12
        assert bad == 0

        # suite E: the three analytic gradients match central differences
        bad = 0
        gmm = GaussianMixture([0.4, 0.6], [[1.0, 0.0], [-1.0, 0.5]],
                              [np.eye(2), 0.5 * np.eye(2)])
        from oodkit.estimators import u_density, u_entropy

        def fd(f, z):
            g = np.zeros_like(z)
            for i in range(z.size):
                zp, zm = z.copy(), z.copy()
                zp[i] += 1e-6
                zm[i] -= 1e-6
                g[i] = (f(zp) - f(zm)) / 2e-6
            return g

        for _ in range(1000):
            k, h = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            head = SoftmaxHead(w=rng.standard_normal((h, k)),
                               b=rng.standard_normal(k))
            z = rng.standard_normal(h)
            try:
                g = grad_u_max(head, z)
            except ArgmaxTieError:
                continue
            ref = fd(lambda zz: u_max(head, zz).value, z)
            bad += not np.allclose(g, ref, rtol=1e-5, atol=1e-8)
            g = grad_u_entropy(head, z)
            ref = fd(lambda zz: u_entropy(head, zz).value, z)
            bad += not np.allclose(g, ref, rtol=1e-5, atol=1e-8)
            z2 = rng.standard_normal(2)
            g = grad_u_density(gmm, z2)
            ref = fd(lambda zz: u_density(gmm, zz).value, z2)
            bad += not np.allclose(g, ref, rtol=1e-5, atol=1e-8)
        assert bad == 0
        _report("criterion 6",
                "five property suites x 1000 trials: norm monotonicity, "
                "planar cos monotonicity (K=2,3), EM log-likelihood, "
                "AUROC vs brute force, gradients vs finite differences; "
                "0 violations")

    def test_07_head_structure_comparison_on_blobs(self):
        t0 = time.perf_counter()
        report = run_counterfactual(
            ["optimal", "trainable", "sandwich", "stack", "lopsided"],
            [0, 1, 2])
        s = report["structures"]
        for kind in ("optimal", "trainable"):
            assert s[kind]["accuracy_mean"] >= 0.99
        gap_opt = s["optimal"]["auroc_mean"] - s["sandwich"]["auroc_mean"]
        gap_train = s["trainable"]["auroc_mean"] - s["sandwich"]["auroc_mean"]
        assert gap_opt >= 0.10
        assert gap_train >= 0.10
        for other in ("sandwich", "stack", "lopsided"):
            assert (s["optimal"]["regularized_xent_mean"]
                    < s[other]["regularized_xent_mean"])
        dt = time.perf_counter() - t0
        assert dt < 180.0
        _report("criterion 7",
                f"accuracy optimal/trainable "
                f"{s['optimal']['accuracy_mean']:.3f}/"
                f"{s['trainable']['accuracy_mean']:.3f}; AUROC gaps over "
                f"sandwich {gap_opt * 100:.1f}/{gap_train * 100:.1f} pts "
                f"(need >= 10); xent ordering holds, {dt:.0f}s")

    def test_08_closed_form_score_tracks_u_max(self):
        t0 = time.perf_counter()
        head = gen_optimal_head(OptimalStructureSpec(k=3, h=2, c1=1.0), seed=0)
        rng = np.random.default_rng(8)
        # exact setting: points on the weight rays, all radii distinct, so
        # max_cos = 1 everywhere and the radius carries the full ordering
        radii = rng.uniform(0.2, 5.0, 300)
        rays = rng.integers(0, 3, 300)
        unit = head.w / head.column_norms()
        pts = radii[:, None] * unit[:, rays].T
        exact_umax = np.array([u_max(head, z).value for z in pts])
        exact_mental = np.array([u_mental(3, r, 1.0).value for r in radii])
        np.testing.assert_array_equal(np.argsort(exact_umax),
                                      np.argsort(exact_mental))

        noisy = pts + 0.05 * rng.standard_normal(pts.shape)
        umax_n = np.array([u_max(head, z).value for z in noisy])
        mental_n = np.array([
            u_mental(3, d.z_norm, float(d.cos_theta.max())).value
            for d in (decompose(head, z) for z in noisy)])
        rho = float(spearmanr(umax_n, mental_n).statistic)
        assert rho >= 0.99
        dt = time.perf_counter() - t0
        assert dt < 5.0
        _report("criterion 8",
                f"exact rank ordering identical on 300 ray points; perturbed "
                f"Spearman {rho:.6f} >= 0.99, {dt:.1f}s")

    def test_09_depth_improves_ood_detection(self):
        t0 = time.perf_counter()
        rows = run_depth_study([1, 4], [0, 1, 2, 3, 4])
        shallow, deep = rows[0], rows[1]
        wins = sum(d >= s for s, d in zip(shallow["auroc_per_seed"],
                                          deep["auroc_per_seed"]))
        assert wins >= 4
        acc_gap = abs(deep["accuracy_mean"] - shallow["accuracy_mean"])
        assert acc_gap < 0.02
        dt = time.perf_counter() - t0
        assert dt < 120.0
        _report("criterion 9",
                f"deep-over-shallow AUROC wins {wins}/5 "
                f"({shallow['auroc_mean']:.3f} -> {deep['auroc_mean']:.3f}); "
                f"accuracy gap {acc_gap * 100:.2f} pts < 2, {dt:.0f}s")

    def test_10_cli_reruns_are_byte_identical(self, tmp_path):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        head = gen_optimal_head(OptimalStructureSpec(k=3, h=2, c1=1.5), seed=0)
        save_head(inputs / "head.csv", head)
        fm, lv = synthesize_cluster_features(head, c3=4.0, n_per_class=80,
                                             noise=0.3, seed=0)
        save_features(inputs / "features.csv", fm, lv)
        task_params = json.dumps({"k": 3, "dim": 2, "n_per_class": 60,
                                  "separation": 6.0, "seed": 0})
        sampler_params = json.dumps({"dim": 2, "low": -10.0, "high": 10.0,
                                     "seed": 1})
        verbs = [
            ("gen-head", ["--kind", "optimal", "--k", "3", "--h", "4",
                          "--seed", "3"]),
            ("audit-head", ["--head", str(inputs / "head.csv")]),
            ("score", ["--features", str(inputs / "features.csv"),
                       "--head", str(inputs / "head.csv")]),
            ("fit-gmm", ["--features", str(inputs / "features.csv")]),
            ("region", ["--kind", "linear", "--head", str(inputs / "head.csv"),
                        "--features", str(inputs / "features.csv"),
                        "--mass-samples", "20000"]),
            ("attribute", ["--row", "0.9,0.92,0.95,0.99",
                           "--row", "0.8,0.85,0.9,0.95"]),
            ("train-toy", ["--task", "gaussian_blobs", "--task-params",
                           task_params, "--depth", "1", "--width", "8",
                           "--activation", "tanh", "--epochs", "8"]),
            ("pca", ["--features", str(inputs / "features.csv"),
                     "--dims", "2"]),
            ("counterfactual", ["--structures", "optimal,sandwich",
                                "--seeds", "0", "--epochs", "5",
                                "--n-per-class", "40", "--n-ood", "60"]),
            ("depth-study", ["--depths", "1,2", "--seeds", "0",
                             "--epochs", "3", "--n-per-class", "40",
                             "--n-ood", "60", "--dim", "2"]),
        ]
        for run in ("a", "b"):
            for verb, flags in verbs:
                outdir = tmp_path / run / verb
                assert cli_main([verb, "--outdir", str(outdir)] + flags) == EXIT_OK
            # sweep consumes the model train-toy just wrote in this run
            assert cli_main([
                "sweep", "--outdir", str(tmp_path / run / "sweep"),
                "--model", str(tmp_path / run / "train-toy" / "model.json"),
                "--sampler", "uniform_hypercube_ood",
                "--sampler-params", sampler_params,
                "--n-samples", "3000", "--top-m", "4"]) == EXIT_OK

        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert len(files_a) >= 12
        mismatched = []
        for fa in files_a:
            fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
            # the echoed configs embed absolute input paths, which contain
            # the per-run directory; normalize those before comparing
            ba = fa.read_bytes().replace(str(tmp_path / "a").encode(), b"RUN")
            bb = fb.read_bytes().replace(str(tmp_path / "b").encode(), b"RUN")
            if ba != bb:
                mismatched.append(str(fa.relative_to(tmp_path / "a")))
        assert mismatched == []
        _report("criterion 10",
                f"11 CLI verbs rerun: {len(files_a)} output files "
                f"byte-identical, 0 mismatches")
