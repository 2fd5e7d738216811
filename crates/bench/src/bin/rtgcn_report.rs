//! `rtgcn-report` — turn per-model telemetry JSONL run logs into a
//! machine-readable BENCH snapshot, and diff snapshots for perf regressions.
//!
//! Snapshot mode (after a harness run):
//!
//! ```text
//! rtgcn-report --logs results/logs --harness table4_baselines \
//!     [--out results/BENCH_table4_baselines.json] [--md results/BENCH.md] \
//!     [--profile-md results/PROFILE.md] [--top 20]
//! ```
//!
//! Baseline mode (CI gate; exits 3 when any metric regresses past the
//! threshold, printing the top regressing span paths by self time so the
//! failure names a kernel, not just a number):
//!
//! ```text
//! rtgcn-report --baseline results/BENCH.baseline.json NEW_JSON \
//!     [--threshold 1.2] [--top 5]
//! ```

use rtgcn_bench::snapshot::{
    attribute_span_regressions, build_snapshot, diff_snapshots, render_markdown,
    render_profile_markdown, render_span_attribution, BenchSnapshot,
};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage:\n  rtgcn-report --logs DIR --harness NAME [--out FILE] [--md FILE] [--profile-md FILE] [--top N]\n  rtgcn-report --baseline BASE_JSON NEW_JSON [--threshold RATIO] [--top N]\n\n--threshold is a ratio > 1.0 (default 1.2; 1.25 = +25%).";

fn fail(msg: &str) -> ! {
    eprintln!("error[rtgcn-report]: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

fn read_snapshot(path: &str) -> BenchSnapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse snapshot {path}: {e}")))
}

fn main() {
    let mut logs: Option<String> = None;
    let mut harness: Option<String> = None;
    let mut out: Option<String> = None;
    let mut md: Option<String> = None;
    let mut profile_md: Option<String> = None;
    let mut baseline: Option<(String, String)> = None;
    let mut threshold: f64 = 1.2;
    let mut top: Option<usize> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, name: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| fail(&format!("{name} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--logs" => logs = Some(value(&args, &mut i, "--logs")),
            "--harness" => harness = Some(value(&args, &mut i, "--harness")),
            "--out" => out = Some(value(&args, &mut i, "--out")),
            "--md" => md = Some(value(&args, &mut i, "--md")),
            "--profile-md" => profile_md = Some(value(&args, &mut i, "--profile-md")),
            "--top" => {
                top = Some(
                    value(&args, &mut i, "--top")
                        .parse()
                        .unwrap_or_else(|e| fail(&format!("--top: {e}"))),
                );
            }
            "--baseline" => {
                let (Some(base), Some(new)) = (args.get(i + 1), args.get(i + 2)) else {
                    fail("--baseline requires BASE_JSON and NEW_JSON");
                };
                baseline = Some((base.clone(), new.clone()));
                i += 2;
            }
            "--threshold" => {
                threshold = value(&args, &mut i, "--threshold")
                    .parse()
                    .unwrap_or_else(|e| fail(&format!("--threshold: {e}")));
                if !threshold.is_finite() || threshold <= 1.0 {
                    fail("--threshold must be a ratio > 1.0 (e.g. 1.25 = +25%)");
                }
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    if let Some((base_path, new_path)) = baseline {
        let base = read_snapshot(&base_path);
        let new = read_snapshot(&new_path);
        let regs = diff_snapshots(&base, &new, (threshold - 1.0) * 100.0);
        if regs.is_empty() {
            println!(
                "OK: no regression past {threshold}x across {} model(s)",
                new.models.len()
            );
            return;
        }
        eprintln!("{} regression(s) past {threshold}x vs {base_path}:", regs.len());
        for r in &regs {
            eprintln!(
                "  {} {}: {:.3} -> {:.3} ({:+.1}%)",
                r.model, r.metric, r.base, r.new, r.pct
            );
        }
        // Attribution: which span paths' *self* time grew the most. This is
        // what turns "epoch_secs_mean +40%" into "spmm_batched +38%".
        let spans = attribute_span_regressions(&base, &new, top.unwrap_or(5));
        if spans.is_empty() {
            eprintln!("no span-level attribution available (snapshots lack shared span trees)");
        } else {
            eprintln!("top span self-time regressions:");
            eprint!("{}", render_span_attribution(&spans));
        }
        exit(3);
    }

    let (Some(logs), Some(harness)) = (logs, harness) else {
        fail("--logs and --harness are required in snapshot mode");
    };
    let snap = build_snapshot(&PathBuf::from(&logs), &harness)
        .unwrap_or_else(|e| fail(&format!("cannot read logs under {logs}: {e}")));
    if snap.models.is_empty() {
        fail(&format!("no run-{}-<model>.jsonl logs found under {logs}", harness));
    }
    let out_path =
        out.unwrap_or_else(|| format!("results/BENCH_{}.json", rtgcn_telemetry::sanitize_label(&harness)));
    rtgcn_eval::write_json(&out_path, &snap)
        .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
    println!("wrote {out_path} ({} models)", snap.models.len());
    if let Some(profile_path) = profile_md {
        let rendered = render_profile_markdown(&snap, top.unwrap_or(20));
        if let Some(dir) = PathBuf::from(&profile_path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&profile_path, rendered)
            .unwrap_or_else(|e| fail(&format!("cannot write {profile_path}: {e}")));
        println!("wrote {profile_path}");
    }
    if let Some(md_path) = md {
        let rendered = render_markdown(&snap);
        if let Some(dir) = PathBuf::from(&md_path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&md_path, rendered)
            .unwrap_or_else(|e| fail(&format!("cannot write {md_path}: {e}")));
        println!("wrote {md_path}");
    } else {
        print!("{}", render_markdown(&snap));
    }
}
