"""End-to-end acceptance: the nine headline guarantees at their stated gates.

Each test prints one pass/fail line with the measured quantities; run with
``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines for
passing criteria too).
"""

import time

import numpy as np
import pytest

import thinslab as ts
from thinslab import ansatz as A, oneway as O, propagator as P, symbols as S
from thinslab.harness import _mixed_mode_datum, norm_sweep


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exactness_oracle():
    start = time.perf_counter()
    g = ts.Grid(256, 2 * np.pi)
    u0 = ts.wave_packet(g)
    worst = 0.0
    for name in ("translation", "halfwave", "damped"):
        spec = ts.get_symbol(name)
        exact = P.exact_multiplier_evolution(spec, 0.0, 1.0, u0)
        for N in (1, 8, 64):
            sub = A.Subdivision(1.0, N, delta_max=1.0)
            got = A.apply_ansatz(spec, sub, u0, variant=P.Averaged())
            diff = ts.Field(g, got.values - exact.values)
            for s in (0.0, 1.0, 2.0):
                err = ts.sobolev_norm(diff, s) / ts.sobolev_norm(u0, s)
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-10 and elapsed < 10.0,
           f"worst relative error {worst:.3e} (< 1e-10), {elapsed:.1f}s (< 10s)")


def test_criterion_2_convergence_rate():
    start = time.perf_counter()
    g = ts.Grid(256, 2 * np.pi)
    u0 = ts.wave_packet(g)
    rep = A.convergence_study(ts.get_symbol("varspeed"), u0, 1.0,
                              (8, 16, 32, 64, 128), P.Frozen(),
                              A.FineStep(1024), Z=1.0)
    elapsed = time.perf_counter() - start
    monotone = all(b <= a * 1.05 for a, b in
                   zip(rep.normalized_errors, rep.normalized_errors[1:]))
    report(2, rep.fitted_slope >= 0.45 and monotone and elapsed < 120.0,
           f"fitted slope {rep.fitted_slope:.3f} (>= 0.45), "
           f"errors monotone within 5%: {monotone}, {elapsed:.1f}s (< 120s)")


def test_criterion_3_hoelder_degradation():
    g = ts.Grid(128, 2 * np.pi)
    u0 = ts.wave_packet(g)
    spec = ts.get_symbol("hoelder-z")
    ref = A.FineStep(1024)
    Ns = (8, 16, 32, 64)
    frozen = A.convergence_study(spec, u0, 1.0, Ns, P.Frozen(), ref, Z=1.0)
    avg = A.convergence_study(spec, u0, 1.0, Ns, P.Averaged(), ref, Z=1.0)
    decreasing = all(b < a for a, b in zip(frozen.errors, frozen.errors[1:]))
    beats = all(ae < 0.9 * fe for ae, fe in zip(avg.errors, frozen.errors))
    report(3, frozen.fitted_slope >= 0.2 and decreasing and beats,
           f"frozen slope {frozen.fitted_slope:.3f} (>= 0.2), decreasing {decreasing}, "
           f"averaged below 0.9x frozen at every N: {beats} "
           f"(worst ratio {max(a / f for a, f in zip(avg.errors, frozen.errors)):.3f})")


def test_criterion_4_operator_norm_bound():
    start = time.perf_counter()
    g = ts.Grid(128, 2 * np.pi)
    worst_ratio = 1.0
    for name in S.available_symbols():
        # frozen slabs of thickness 2^-4 .. 2^-9, rows (s, delta, norm, (norm - 1)/delta)
        rows = norm_sweep(ts.get_symbol(name), g)
        for s in (0.0, 1.0):
            # one-sided bound: only growth above 1 is limited, floor
            # the rate so contractive symbols compare as "no growth"
            rates = [max(rate, 1e-6) for s_row, _, _, rate in rows if s_row == s]
            worst_ratio = max(worst_ratio, max(rates) / min(rates))
        if name == "damped":
            # pure damping (b = 0, c0 = 0, c1 >= 0) never expands L2
            damped_worst = max(norm for s_row, _, norm, _ in rows if s_row == 0.0)
    elapsed = time.perf_counter() - start
    report(4, worst_ratio <= 3.0 and damped_worst <= 1.0 + 1e-9 and elapsed < 60.0,
           f"worst (norm-1)/delta max/min ratio {worst_ratio:.3f} (<= 3), "
           f"pure-damping L2 norm {damped_worst:.12f} (<= 1+1e-9), "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_5_composition_stability():
    g = ts.Grid(256, 2 * np.pi)
    u0 = ts.wave_packet(g)
    rep = A.uniform_bound_check(ts.get_symbol("varspeed"), [u0], 1.0,
                                (8, 16, 32, 64, 128, 256))
    variation = max(rep.per_n) / min(rep.per_n) - 1.0
    no_growth = rep.per_n[-1] <= max(rep.per_n[:3]) * 1.05
    report(5, variation < 0.05 and no_growth,
           f"sup ratio {rep.sup_ratio:.6f}, variation across N {variation:.3%} (< 5%), "
           f"no growth with slab count: {no_growth}")


def test_criterion_6_residual_decay():
    g = ts.Grid(256, 2 * np.pi)
    u0 = ts.wave_packet(g)
    spec = ts.get_symbol("varspeed")
    deltas, residuals = [], []
    for N in (16, 32, 64, 128):
        sub = A.Subdivision(1.0, N)
        mid = (N // 2 + 0.5) / N
        residuals.append(A.residual_norm(spec, sub, u0, mid, 1.0))
        deltas.append(1.0 / N)
    slope = np.polyfit(np.log(deltas), np.log(residuals), 1)[0]
    report(6, slope >= 0.45,
           f"mid-slab residual slope {slope:.3f} (>= 0.45), "
           f"residuals {['%.3e' % r for r in residuals]}")


def test_criterion_7_symbol_class_suite():
    start = time.perf_counter()
    worst = 0.0
    all_pass = True
    for trial in range(100):
        q, _ = S.random_nonneg_order1(np.random.default_rng(1000 + trial))
        rep = S.check_PL(q)
        worst = max(worst, rep.worst_ratio)
        all_pass = all_pass and rep.passed
    ql = S.check_QL_family(lambda x, xi: S.smoothed_abs(xi)
                           * np.ones(np.broadcast(x, xi).shape))
    elapsed = time.perf_counter() - start
    report(7, all_pass and worst <= 50.0 and ql.uniform and elapsed < 30.0,
           f"100/100 randomized symbols pass, worst ratio {worst:.2f} (<= 50), "
           f"exp(-Delta q) family uniform: {ql.uniform}, {elapsed:.1f}s (< 30s)")


def test_criterion_8_non_semigroup_witness():
    g = ts.Grid(128, 2 * np.pi)
    d_var = P.semigroup_defect(ts.get_symbol("varspeed"), 0.0, 1 / 16, 2 / 16, 1.0, g)
    d_const = max(
        P.semigroup_defect(ts.get_symbol(n), 0.0, 1 / 16, 2 / 16, 1.0, g)
        for n in ("translation", "halfwave", "damped"))
    zdep = S.SymbolSpec(
        b1=lambda z, x, xi: (1.0 + z) * xi * np.ones(np.broadcast(x, xi).shape),
        x_independent=True)
    d_avg = P.semigroup_defect(zdep, 0.0, 1 / 16, 2 / 16, 1.0, g,
                               variant=P.Averaged())
    report(8, d_var > 1e-4 and d_const < 1e-10 and d_avg < 1e-10,
           f"varspeed defect {d_var:.3e} (> 1e-4), x-independent z-independent "
           f"defect {d_const:.3e} (< 1e-10), averaged z-dependent multiplier "
           f"defect {d_avg:.3e} (< 1e-10)")


def test_criterion_9_oneway_demo():
    start = time.perf_counter()
    g = ts.Grid(256, 2 * np.pi)
    ap = O.ApertureConfig(theta1=np.pi / 12, theta2=np.pi * 50 / 180, tau=32.0)
    med = O.homogeneous_medium()
    phase_worst = 0.0
    for mode in (0, 2, 5):
        u0 = ts.Field(g, np.exp(1j * mode * g.axis_points()))
        uz = O.downward_continue(med, ap, u0, 1.0, 64, damping_scale=0.0)
        expected = np.exp(1j * np.sqrt(32.0 ** 2 - mode ** 2))
        phase_worst = max(phase_worst,
                          float(np.max(np.abs(uz.values / u0.values - expected))))
    lens = O.lens_medium(period=2 * np.pi)
    u0 = _mixed_mode_datum(g, lens, ap)
    e0 = O.energy_partition(ts.forward(u0), lens, ap)
    uZ = O.downward_continue(lens, ap, u0, 1.0, 64, damping_scale=2.0)
    eZ = O.energy_partition(ts.forward(uZ), lens, ap)
    suppression = e0[2] / max(eZ[2], 1e-300)
    inside_change = abs(eZ[0] / e0[0] - 1.0)
    elapsed = time.perf_counter() - start
    report(9, phase_worst < 1e-9 and suppression >= 10.0
           and inside_change <= 0.05 and elapsed < 60.0,
           f"phase error {phase_worst:.3e} (< 1e-9), outside-aperture suppression "
           f"{suppression:.3e}x (>= 10x), inside-aperture change {inside_change:.3%} "
           f"(<= 5%), {elapsed:.1f}s (< 60s)")
