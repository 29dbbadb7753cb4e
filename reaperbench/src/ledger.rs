//! Turns a merged trace into per-layer metrics and ledger lines, and
//! writes the spans out when the run ends.

use std::collections::BTreeMap;

use crate::report::{percentile, Report};
use crate::trace::{SpanSummary, Trace};
use crate::Args;

/// Median span duration in milliseconds, and the span count.
pub fn p50_ms(summaries: &BTreeMap<&'static str, SpanSummary>, name: &str) -> (f64, u64) {
    summaries.get(name).map_or((0.0, 0), |s| {
        let mut d: Vec<f64> = s.durations_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        d.sort_by(f64::total_cmp);
        (percentile(&d, 0.5), s.count)
    })
}

/// Sets `layer` to the median duration of the spans named `span`,
/// scaled from milliseconds by `scale`.
pub fn layer_p50(
    report: &mut Report,
    summaries: &BTreeMap<&'static str, SpanSummary>,
    layer: &'static str,
    span: &str,
    scale: f64,
) {
    let (ms, n) = p50_ms(summaries, span);
    report.layer(layer, ms * scale, n);
}

/// One ledger line per span name: count, median, total and self time.
pub fn span_table(report: &mut Report, summaries: &BTreeMap<&'static str, SpanSummary>) {
    for (name, s) in summaries {
        let (p50, _) = p50_ms(summaries, name);
        report.notes.push(format!(
            "span {name:<36} n={:<7} p50_ms={p50:<10.4} total_ms={:<12.3} self_ms={:.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        ));
    }
}

/// The `retention.*` trial split of `characterize`: per-call medians and
/// each bucket's share of trial time, then the share of the trials that
/// ran while VRT arrival cells were active (`carrying`: calls and ms over
/// all traced passes), which cuts across the buckets.
pub fn characterize(report: &mut Report, trace: &Trace, passes: u64, carrying: (u64, f64)) {
    let s = trace.summarize();
    layer_p50(
        report,
        &s,
        "retention.chip_new_ms",
        "retention.chip_new",
        1.0,
    );
    layer_p50(report, &s, "retention.advance_ms", "retention.advance", 1.0);
    let buckets = [
        ("retention.trial_ms.compiling", "retention.trial.compiling"),
        ("retention.trial_ms.plan_hit", "retention.trial.plan_hit"),
        (
            "retention.trial_ms.lowered_or_scalar",
            "retention.trial.lowered_or_scalar",
        ),
        (
            "retention.trial_ms.with_arrivals",
            "retention.trial.with_arrivals",
        ),
    ];
    let total: u64 = buckets
        .iter()
        .filter_map(|(_, span)| s.get(span))
        .map(|x| x.total_ns)
        .sum();
    for (layer, span) in buckets {
        layer_p50(report, &s, layer, span, 1.0);
        let (calls, ns) = s.get(span).map_or((0, 0), |x| (x.count, x.total_ns));
        report.notes.push(format!(
            "split {layer:<38} calls/pass={:<8.1} ms/pass={:<10.2} share_of_trial_time={:.3}",
            calls as f64 / passes.max(1) as f64,
            ns as f64 / 1e6 / passes.max(1) as f64,
            ns as f64 / total.max(1) as f64
        ));
    }
    let per_pass = passes.max(1) as f64;
    report.notes.push(format!(
        "split {:<38} calls/pass={:<8.1} ms/pass={:<10.2} share_of_trial_time={:.3}",
        "arrival cells active (any bucket)",
        carrying.0 as f64 / per_pass,
        carrying.1 / per_pass,
        carrying.1 * 1e6 / total.max(1) as f64
    ));
    span_table(report, &s);
}

/// Writes the spans as JSON lines under the benchmark's `out/`
/// directory and notes the path in the report.
pub fn write_trace(report: &mut Report, trace: &Trace, args: &Args) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-{}.jsonl", args.workload, args.seed);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace.to_json_lines()));
    match written {
        Ok(()) => report.notes.push(format!("spans written to {path}")),
        Err(e) => report
            .notes
            .push(format!("spans not written ({path}): {e}")),
    }
}
