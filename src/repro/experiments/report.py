"""EXPERIMENTS.md generator: run every table/figure and record the shapes.

Usage::

    python -m repro.experiments.report --scale bench --out EXPERIMENTS.md

Runs the Table 2 cross-check and the Fig. 5/6/7 + Table 3 harnesses at the
chosen scale and writes a markdown report comparing each measured shape
against the paper's claims.  The ``smoke`` scale finishes in a couple of
minutes; ``bench`` takes ~15 minutes; ``paper`` reproduces the full-size
system and is an overnight run.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from repro.experiments import ablation, fig5, fig6, fig7, table2, table3
from repro.experiments.configs import get_scale
from repro.experiments.throughput import measure_throughput
from repro.metrics.latency import zero_load_latency


def _fmt(value: float, digits: int = 3) -> str:
    if value != value:  # NaN
        return "nan"
    return f"{value:.{digits}f}"


def markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a GitHub-flavoured markdown table."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def render_table2() -> str:
    rows = [
        [r["component"], r["power_mw"], r["trend"]]
        for r in table2.trend_model_rows()
    ]
    problems = table2.verify_against_paper()
    totals = table2.link_totals()
    parts = [
        "## Table 2 — link component power and scaling trends",
        "",
        markdown_table(["component", "power @10G (mW)", "scaling trend"], rows),
        "",
        f"- VCSEL link: {_fmt(totals['vcsel_at_10g_mw'], 1)} mW @10G -> "
        f"{_fmt(totals['vcsel_at_5g_mw'], 1)} mW @5G "
        f"({_fmt(100 * totals['vcsel_savings_at_5g'], 1)}% saving; paper: "
        "290 -> ~61 mW, ~80%).",
        f"- Modulator link: {_fmt(totals['modulator_at_10g_mw'], 1)} mW @10G "
        f"-> {_fmt(totals['modulator_at_5g_mw'], 1)} mW @5G.",
        f"- Cross-check vs paper: "
        f"{'OK' if not problems else '; '.join(problems)}",
    ]
    return "\n".join(parts)


def render_sweep(sweeps, x_name: str, title: str, note: str) -> str:
    parts = [f"## {title}", "", note, ""]
    for load, series in sweeps.items():
        rows = [
            [
                _fmt(x, 0) if x >= 1 else _fmt(x, 2),
                _fmt(r.latency_ratio),
                _fmt(r.power_ratio),
                _fmt(r.power_latency_product),
            ]
            for x, r in zip(series.x_values, series.results)
        ]
        parts.append(f"### load: {load}")
        parts.append(
            markdown_table(
                [x_name, "latency ratio", "power ratio", "PLP"], rows
            )
        )
        parts.append("")
    return "\n".join(parts)


def render_injection(curves, scale) -> str:
    parts = [
        "## Fig 5(g)(h) — latency and power vs injection rate",
        "",
        "Latency is mean cycles (g); power is relative to non-power-aware "
        "(h).  Each curve's throughput uses its own zero-load reference "
        "(an idle power-aware network sits at its minimum bit rate).",
        "",
    ]
    configurations = fig5.ladder_configurations(scale)
    for name, points in curves.items():
        rows = [
            [
                _fmt(rate, 2),
                _fmt(result.mean_latency, 1),
                _fmt(result.relative_power),
            ]
            for rate, result in points
        ]
        power = configurations.get(name)
        if power is not None:
            service = scale.network.flit_service_time(power.min_bit_rate,
                                                      power.max_bit_rate)
        else:
            service = 1.0
        zero_load = zero_load_latency(scale.network, packet_size=5,
                                      service_time=service)
        throughput = fig5.throughput_of_curve(points, zero_load)
        parts.append(f"### {name} (throughput >= {_fmt(throughput, 2)} pkt/cyc)")
        parts.append(
            markdown_table(["rate (pkt/cyc)", "latency (cyc)", "rel. power"],
                           rows)
        )
        parts.append("")
    return "\n".join(parts)


def render_fig6(ablation, optical, tech) -> str:
    parts = ["## Fig 6 — time-varying hot-spot traffic", ""]
    rows = []
    for name, data in ablation.items():
        result = data["result"]
        rows.append([name, _fmt(result.mean_latency, 1),
                     _fmt(result.relative_power)])
    parts += [
        "### (b) transition-delay ablation",
        markdown_table(["variant", "mean latency (cyc)", "rel. power"], rows),
        "",
    ]
    rows = []
    for name, data in optical.items():
        result = data["result"]
        rows.append([name, _fmt(result.mean_latency, 1),
                     _fmt(result.relative_power)])
    parts += [
        "### (c) optical power levels",
        markdown_table(["variant", "mean latency (cyc)", "rel. power"], rows),
        "",
    ]
    rows = []
    for name, data in tech.items():
        result = data["result"]
        series = data["relative_power_series"]
        mean_rel = (sum(v for _, v in series) / len(series)) if series else math.nan
        rows.append([name, _fmt(result.relative_power),
                     _fmt(mean_rel)])
    parts += [
        "### (d) VCSEL vs modulator power",
        markdown_table(["technology", "rel. power (energy)",
                        "rel. power (sampled mean)"], rows),
        "",
    ]
    return "\n".join(parts)


def render_fig7(results) -> str:
    parts = ["## Fig 7 / Table 3 — SPLASH2-like traces", ""]
    rows = []
    for row in fig7.table3_rows(results):
        rows.append([
            str(row["trace"]),
            _fmt(float(row["latency_ratio"]), 2),
            _fmt(float(row["power_ratio"]), 2),
            _fmt(float(row["power_latency_product"]), 2),
        ])
    parts.append(markdown_table(
        ["trace", "latency ratio", "power ratio", "PLP"], rows))
    paper_rows = [
        [trace, _fmt(lat, 2), _fmt(pwr, 2), _fmt(plp, 2)]
        for trace, (lat, pwr, plp) in table3.PAPER_TABLE3.items()
    ]
    parts += [
        "",
        "Paper Table 3 for comparison:",
        markdown_table(["trace", "latency ratio", "power ratio", "PLP"],
                       paper_rows),
        "",
        f"- Mean power saving: "
        f"{_fmt(100 * fig7.mean_power_savings(results), 1)}% "
        "(paper: >75%).",
        f"- Shape check: "
        f"{'OK' if not table3.shape_check(fig7.table3_rows(results)) else table3.shape_check(fig7.table3_rows(results))}",
        "",
        "Known gap: our latency ratios run ~0.5-0.8 above the paper's. "
        "The power ratios and the FFT-lowest ordering reproduce; the "
        "absolute latency gap traces to the traces themselves — the "
        "authors' RSIM captures are unavailable, and synthetic envelopes "
        "cannot reproduce the exact burst microstructure that determines "
        "how much queueing the baseline network absorbs (a burstier "
        "baseline inflates the denominator).  See DESIGN.md Section 7, "
        "synthetic traces.",
    ]
    return "\n".join(parts)


def render_ablation(scale, seed: int) -> str:
    results = ablation.run_ablation(scale, load="medium", seed=seed)
    rows = [
        [name,
         _fmt(result.mean_latency, 1),
         _fmt(result.relative_power),
         _fmt(result.delivery_fraction)]
        for name, result in results.items()
    ]
    return "\n".join([
        "## Ablation — policy stabilisers (DESIGN.md Section 7)",
        "",
        "Medium uniform load; `paper_literal` is Table 1 with busy-time Lu "
        "and no guards.  Expected shape: the full policy delivers ~all "
        "offered traffic at the lowest latency; removing pressure-aware "
        "utilisation costs the most.",
        "",
        markdown_table(
            ["variant", "latency (cyc)", "rel. power", "delivered"], rows
        ),
        "",
    ])


def render_throughput(scale, seed: int) -> str:
    from repro.experiments.configs import (
        power_config,
        static_rate_config,
        uniform_saturation_packets,
    )

    cycles = max(5000, scale.run_cycles // 6)
    variants = {
        "non_power_aware": None,
        "pa_vcsel_5_10": power_config(scale),
        "pa_vcsel_3.3_10": power_config(scale, min_bit_rate=3.3e9),
        "static_3.3": static_rate_config(scale, 3.3e9),
    }
    rows = []
    for name, power in variants.items():
        measured = measure_throughput(scale, power, seed=seed, cycles=cycles,
                                      max_iterations=5)
        rows.append([name, _fmt(measured, 2)])
    ceiling = uniform_saturation_packets(scale.network)
    return "\n".join([
        "## Throughput (paper Section 4.1 metric, supports Fig 5(g))",
        "",
        f"Bisection for the rate where latency crosses 2x zero-load; "
        f"theoretical bisection ceiling {_fmt(ceiling, 2)} pkt/cyc.",
        "",
        markdown_table(["network", "throughput (pkt/cyc)"], rows),
        "",
    ])


def generate_report(scale_name: str = "bench", seed: int = 1) -> str:
    """Run every experiment at a scale and return the markdown report."""
    scale = get_scale(scale_name)
    started = time.time()
    sections = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"Generated by `python -m repro.experiments.report --scale "
        f"{scale_name}`.",
        "",
        f"Scale preset: **{scale.name}** — "
        f"{scale.network.mesh_width}x{scale.network.mesh_height} mesh, "
        f"{scale.network.nodes_per_cluster} nodes/rack, "
        f"{scale.run_cycles} cycles/run, slow time constants divided by "
        f"{scale.slow_constant_divisor}.  The paper's absolute numbers come "
        "from a 8x8x8 system over 10^6+ cycles; at reduced scale we compare "
        "*shapes* (who wins, by what factor, where crossovers fall).",
        "",
        render_table2(),
        "",
    ]
    sections.append(render_sweep(
        fig5.window_size_sweep(scale, seed=seed), "Tw",
        "Fig 5(a)(b)(c) — window-size sweep (uniform random)",
        "Expected shape: the shortest Tw hurts latency at medium/heavy "
        "load; Tw around the preset default is the compromise.  Scaled-run "
        "caveat: at reduced run lengths the largest windows also show "
        "*higher power* because the descent to the ladder bottom does not "
        "complete within the run — at paper scale (10^6 cycles) that "
        "start-up fraction vanishes and the short-window transition "
        "overhead dominates, matching the paper's power trend.",
    ))
    sections.append(render_sweep(
        fig5.threshold_sweep(scale, seed=seed), "avg threshold",
        "Fig 5(d)(e)(f) — utilisation-threshold sweep (uniform random)",
        "Expected shape: higher thresholds lower power and raise latency at "
        "medium load; light and saturated loads are insensitive.",
    ))
    sections.append(render_injection(fig5.injection_sweep(scale, seed=seed),
                                     scale))
    sections.append(render_fig6(
        fig6.transition_delay_ablation(scale, seed=seed),
        fig6.optical_level_comparison(scale, seed=seed),
        fig6.technology_power_comparison(scale, seed=seed),
    ))
    sections.append(render_fig7(fig7.run_all_benchmarks(scale, seed=seed)))
    sections.append(render_ablation(scale, seed))
    sections.append(render_throughput(scale, seed))
    sections.append(
        f"\n_Total generation time: {time.time() - started:.0f} s._\n"
    )
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="bench",
                        choices=["smoke", "bench", "paper"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    report = generate_report(args.scale, args.seed)
    Path(args.out).write_text(report, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
