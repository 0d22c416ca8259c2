//! End-to-end and per-layer benchmark of the DQuaG validation server.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream_rows|stream_bulk|fit_detect> [--seed 1] [--seconds 10] [--trace 0|1]
//! ```
//!
//! One process fits a model, persists and reloads it, serves it through
//! `NetListenerSource` → `SourceRuntime` → `StreamEngine` over loopback,
//! drives it with an open-loop then a saturating load generator, re-judges
//! every served frame in process, and prints one JSON result line. See
//! `perfbench/README.md`.

mod catalogue;
mod cpu;
mod frames;
mod layers;
mod serve;
mod trace;
mod wait;
mod workload;

use frames::FrameSet;
use serve::{BenchResult, Phase, Plan, Served, SetupTimes};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{CallLog, Tracer};
use workload::{Workload, CYCLES, MIN_CYCLE_VERDICTS, MIN_OPEN_VERDICTS, SETUPS};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Held-out seed: not used while the workloads were tuned, so later claims
/// can be checked on it.
const HELD_OUT_SEED: u64 = 1729;

/// The generator fell behind its schedule when its median send lag exceeds
/// this fraction of the per-connection send interval; such a run is
/// invalid. The median, not a tail: the VM's own pauses delay a few sends
/// by milliseconds in every run, while a starved generator is late for
/// most of them.
const MAX_LAG_FRACTION: f64 = 0.5;

/// Exit codes besides 0.
const EXIT_INCORRECT: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_INVALID_RUN: i32 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: dquag-perfbench --workload <stream_rows|stream_bulk|fit_detect> \
         [--seed N (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED})] [--seconds S (default 10)] [--trace 0|1] [--smoke]\n       \
         dquag-perfbench --catalogue"
    );
    std::process::exit(EXIT_USAGE)
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, DEFAULT_SEED, 10.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    workload::by_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{name}`"))),
                );
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(seconds > 0.0 && seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => smoke = true,
            "--catalogue" => {
                print_catalogue();
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let workload = if smoke { workload.smoke() } else { workload };
    Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    }
}

fn print_catalogue() {
    for (kind, list) in [
        ("end_to_end", catalogue::END_TO_END),
        ("per_layer", catalogue::PER_LAYER),
    ] {
        for m in list {
            println!("{kind} {} {} {} {}", m.name, m.unit, m.better, m.layer);
        }
    }
}

/// Segment lengths for a run of `seconds`: a tenth warm-up, then
/// 45% open loop, 20% closed loop and 25% saturation, each split over the
/// cycles. The open-loop segments are stretched if needed to give
/// `MIN_OPEN_VERDICTS` at the workload's offered rate.
fn plan(w: &Workload, seconds: f64, smoke: bool) -> Plan {
    let cycles = if smoke { 2 } else { CYCLES };
    let open_min = if smoke {
        0.0
    } else {
        1.05 * MIN_OPEN_VERDICTS as f64 / w.open_rate
    };
    let per_cycle = |share: f64| Duration::from_secs_f64(share / cycles as f64);
    Plan {
        warmup: Duration::from_secs_f64(0.1 * seconds),
        open: per_cycle((0.45 * seconds).max(open_min)),
        closed: per_cycle(0.2 * seconds),
        saturation: per_cycle(0.25 * seconds),
        cycles,
    }
}

fn main() {
    let args = parse_args();
    match cpu::pin_to_one() {
        Some(cpu) => eprintln!("perfbench: running on CPU {cpu} only"),
        None => eprintln!("perfbench: could not pin to one CPU; running on all"),
    }
    let work = PathBuf::from(".bench_build")
        .join("perfbench")
        .join(format!("work-{}", std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(Outcome::Done(report)) => println!("{}", report.json()),
        Ok(Outcome::Invalid(reason)) => {
            eprintln!("perfbench: run invalid, not a measurement: {reason}");
            std::process::exit(EXIT_INVALID_RUN);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(EXIT_INCORRECT);
        }
    }
}

enum Outcome {
    Done(Report),
    Invalid(String),
}

/// A run that passed every output check: verdict parity, the Table 1
/// protocol counts, one verdict per acknowledged frame. A failed check ends
/// the run with an error instead, so `correct` is always true here.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = catalogue::END_TO_END
                .iter()
                .chain(catalogue::PER_LAYER)
                .find(|m| m.name == *name)
                .map_or("?", |m| m.unit);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("String write");
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Mean of the values between the first and third quartiles.
fn interquartile_mean(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let quarter = values.len() / 4;
    mean(&values[quarter..values.len() - quarter])
}

/// Length of one saturation-throughput window.
const SATURATION_WINDOW: Duration = Duration::from_millis(100);

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `to - from` in milliseconds, negative when `to` comes first.
fn signed_ms(from: Instant, to: Instant) -> f64 {
    if to >= from {
        ms(to - from)
    } else {
        -ms(from - to)
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The in-process verdict for one `(frame, format)` payload.
struct Replayed {
    is_dirty: bool,
    flagged: Vec<usize>,
    elapsed: Duration,
    rows: usize,
    fingerprint: u64,
}

fn run(args: &Args, work: &std::path::Path) -> BenchResult<Outcome> {
    let w = &args.workload;
    let model_path = work.join("model.json");
    let calls: Option<CallLog> = args.trace.then(CallLog::default);

    let set = frames::build(w, args.seed);
    if let workload::FrameSource::Table1 { per_class } = w.source {
        // The protocol: every cell has `per_class` clean and dirty batches.
        let expected_cells = 3 + w.dataset.hidden_errors().len();
        let mut ok =
            set.cells.len() == expected_cells && set.frames.len() == expected_cells * 2 * per_class;
        for cell in 0..set.cells.len() {
            let in_cell: Vec<_> = set.frames.iter().filter(|f| f.cell == cell).collect();
            ok &= in_cell.iter().filter(|f| f.truth_dirty).count() == per_class
                && in_cell.iter().filter(|f| !f.truth_dirty).count() == per_class
                && in_cell.iter().all(|f| f.df.n_rows() == w.frame_rows);
        }
        if !ok {
            return Err(format!(
                "Table 1 protocol mismatch: {} cells, {} batches",
                set.cells.len(),
                set.frames.len()
            ));
        }
    }

    // Set up several times, before and after serving, so the set-up and
    // fit medians span the run; the last set-up before serving serves and
    // fits on `--seed`, the others on seeds derived from it. Every fit's
    // detection quality is measured, and the run reports the median fit:
    // one fit's quality moves by a quarter from seed to seed.
    let (before, after) = if args.smoke { (1, 0) } else { SETUPS };
    let fit_seed = |i: usize| args.seed.wrapping_add(FIT_SEED_STRIDE * i as u64);
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut qualities: Vec<Quality> = Vec::new();
    let mut stack = None;
    for j in 0..before {
        let served_fit = j + 1 == before;
        let seed = fit_seed(if served_fit { 0 } else { j + 1 });
        let (s, times) = serve::setup(w, seed, &model_path, calls.as_ref())?;
        setups.push(times);
        if served_fit {
            stack = Some(s);
        } else {
            s.shutdown()?;
            qualities.push(quality(&set, &*reload(&model_path)?)?);
        }
    }
    let stack = stack.expect("at least one set-up");

    // In-process replay of every payload the generator can send, on a
    // second copy of the served model: the reference verdicts for the
    // parity check and the single-threaded `validate` timings. Each
    // payload is timed once before serving, once in the middle of the
    // serving run and once after, and its median time is used, so a slow
    // spell of the machine during one of them drops out.
    let replayer = reload(&model_path)?;
    qualities.push(quality(&set, &*replayer)?);
    let schema = w.dataset.schema();
    let needed = set.payloads(w.wire);
    let mut decoded = Vec::with_capacity(needed.len());
    for &(frame, format) in &needed {
        let payload = &set.frames[frame].payloads[format];
        let df = dquag_sources::decode_batch(frames::wire_format(format), payload, &schema)
            .map_err(|e| format!("frame {frame} does not decode in process: {e}"))?;
        decoded.push(df);
    }
    let mut timings: Vec<Vec<f64>> = vec![Vec::with_capacity(3); needed.len()];
    let replay_pass = |timings: &mut [Vec<f64>]| {
        decoded
            .iter()
            .zip(timings.iter_mut())
            .map(|(df, times)| {
                let started = Instant::now();
                let verdict = replayer
                    .validate(df)
                    .map_err(|e| format!("in-process replay: {e}"))?;
                times.push(started.elapsed().as_secs_f64());
                Ok(verdict)
            })
            .collect::<BenchResult<Vec<_>>>()
    };
    let verdicts = replay_pass(&mut timings)?;

    let plan = plan(w, args.seconds, args.smoke);
    let served = serve::serve(stack, w, &set, &plan, args.trace, || {
        replay_pass(&mut timings).map(drop)
    })?;
    replay_pass(&mut timings)?;
    for j in 0..after {
        let (s, times) = serve::setup(w, fit_seed(before + j), &model_path, None)?;
        setups.push(times);
        s.shutdown()?;
        qualities.push(quality(&set, &*reload(&model_path)?)?);
    }

    // Generator honesty: a starved load generator voids the run.
    let lags = lag_all_open(&served);
    let lag_p50 = percentile(&lags, 0.50);
    let lag_limit = MAX_LAG_FRACTION * ms(served.interval);
    eprintln!(
        "perfbench: load generator lag p50 {lag_p50:.4} ms (limit {lag_limit:.4} ms), p99 {:.4} ms",
        percentile(&lags, 0.99)
    );
    if !args.smoke && lag_p50 > lag_limit {
        return Ok(Outcome::Invalid(format!(
            "load generator median lag {lag_p50:.3} ms exceeds {MAX_LAG_FRACTION} of the \
             {:.3} ms send interval",
            ms(served.interval)
        )));
    }

    let mut replayed: HashMap<(usize, usize), Replayed> = HashMap::new();
    for (i, verdict) in verdicts.into_iter().enumerate() {
        replayed.insert(
            needed[i],
            Replayed {
                is_dirty: verdict.is_dirty,
                flagged: verdict.flagged_instances.unwrap_or_default(),
                elapsed: Duration::from_secs_f64(median(std::mem::take(&mut timings[i]))),
                rows: decoded[i].n_rows(),
                fingerprint: if args.trace {
                    trace::fingerprint(&decoded[i])
                } else {
                    0
                },
            },
        );
    }
    let by_seq: HashMap<u64, &serve::Received> =
        served.received.iter().map(|r| (r.seq, r)).collect();
    for send in &served.sends {
        let Some(seq) = send.seq else { continue };
        let received = by_seq
            .get(&seq)
            .ok_or_else(|| format!("frame seq {seq} was acknowledged but never judged"))?;
        let expected = &replayed[&(send.frame, send.format)];
        if let Some((is_dirty, flagged)) = &received.verdict {
            if *is_dirty != expected.is_dirty || *flagged != expected.flagged {
                return Err(format!(
                    "verdict parity failed for frame seq {seq}: served dirty={is_dirty} \
                     flagged={flagged:?}, in process dirty={} flagged={:?}",
                    expected.is_dirty, expected.flagged
                ));
            }
        }
    }

    // Frames refused at the edge, or accepted and then failed or past their
    // deadline in the engine. A `Block` submission that outlasts one
    // 50 ms wait slice (`stats.timed_out`) is retried by the source until
    // it is enqueued, so it is no failure; every acknowledged frame was
    // checked above to have its verdict.
    let failed = served.refused
        + served
            .received
            .iter()
            .filter(|r| r.verdict.is_none())
            .count() as u64;
    let attempted = served.sends.len() as u64;

    let metrics = if args.trace {
        let state = match replayer.persisted_state() {
            Some(dquag_validate::PersistedValidatorState::Dquag(state)) => state,
            _ => return Err("the served model exports no DQuaG state".to_string()),
        };
        let calls = calls.expect("traced runs log calls");
        let calls = calls.lock().expect("call log mutex poisoned").clone();
        per_layer_metrics(
            args, &set, &served, &replayed, &calls, &setups, &state, failed, attempted,
        )?
    } else {
        end_to_end_metrics(args, &served, &replayed, &qualities, &setups)?
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
    }
    Ok(Outcome::Done(Report {
        attempted,
        failed,
        metrics,
    }))
}

/// Medians over the set-ups: total (s), fit (s), training samples per
/// second, save (ms), load (ms).
fn setup_medians(setups: &[SetupTimes]) -> (f64, f64, f64, f64, f64) {
    let med = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
    (
        med(|s| s.total.as_secs_f64()),
        med(|s| s.fit.as_secs_f64()),
        med(|s| s.train_samples as f64 / s.fit.as_secs_f64()),
        med(|s| ms(s.save)),
        med(|s| ms(s.load)),
    )
}

fn end_to_end_metrics(
    args: &Args,
    served: &Served,
    replayed: &HashMap<(usize, usize), Replayed>,
    qualities: &[Quality],
    setups: &[SetupTimes],
) -> BenchResult<Vec<(&'static str, f64)>> {
    let by_seq: HashMap<u64, &serve::Received> =
        served.received.iter().map(|r| (r.seq, r)).collect();
    // Per cycle: the closed-loop segment's verdict latencies and the times
    // the saturation segment's frames were judged. Latency is the median of
    // the per-cycle p50s, so a slow spell of the shared host that overlaps
    // fewer than half of the cycles does not move it. Latencies are kept
    // apart by body format (CSV, NDJSON): `stream_bulk` alternates them,
    // and the p50 of the mixture would sit on the edge between two modes
    // and jump between them from run to run.
    let cycles = served.saturation.len();
    let mut verdict_ms = vec![[vec![], vec![]]; cycles];
    let mut sat_done: Vec<Vec<(Instant, usize)>> = vec![vec![]; cycles];
    let mut open_verdicts = 0;
    for send in &served.sends {
        let received = send.seq.and_then(|seq| by_seq.get(&seq));
        match send.phase {
            Phase::Warmup => {}
            Phase::Open => open_verdicts += usize::from(received.is_some()),
            Phase::Closed => {
                if let Some(received) = received {
                    verdict_ms[send.cycle][send.format]
                        .push(ms(received.at.saturating_duration_since(send.due)));
                }
            }
            Phase::Saturation => {
                if let Some(received) = received {
                    sat_done[send.cycle].push((received.at, send.rows));
                }
            }
        }
    }
    let judged = |cycle: &[Vec<f64>; 2]| cycle.iter().map(Vec::len).sum::<usize>();
    let fewest = verdict_ms.iter().map(judged).min().unwrap_or(0);
    if !args.smoke && (open_verdicts < MIN_OPEN_VERDICTS || fewest < MIN_CYCLE_VERDICTS) {
        return Err(format!(
            "open loop produced {open_verdicts} verdicts, at least {MIN_OPEN_VERDICTS} needed; \
             the sparsest closed-loop segment {fewest}, at least {MIN_CYCLE_VERDICTS} needed"
        ));
    }
    // Each cycle's p50: the per-format p50s, weighted by their samples.
    let verdict_p50: Vec<f64> = verdict_ms
        .iter()
        .map(|formats| {
            let weighted: f64 = formats
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| percentile(s, 0.50) * s.len() as f64)
                .sum();
            weighted / judged(formats).max(1) as f64
        })
        .collect();
    // Rows judged per second in each `SATURATION_WINDOW` of every
    // saturation segment; throughput is the mean of the middle half of the
    // windows. The host takes its vCPU away in bursts of milliseconds, and a
    // mean over the whole run would charge every burst to the program. (A
    // median would move in whole frames per window: 4% steps on
    // `stream_bulk`.)
    let mut rates = Vec::new();
    for (&(start, end), done) in served.saturation.iter().zip(&sat_done) {
        let windows = ((end - start).as_secs_f64() / SATURATION_WINDOW.as_secs_f64()) as u32;
        for i in 0..windows {
            let (from, to) = (
                start + SATURATION_WINDOW * i,
                start + SATURATION_WINDOW * (i + 1),
            );
            let rows: usize = done
                .iter()
                .filter(|&&(at, _)| at > from && at <= to)
                .map(|&(_, rows)| rows)
                .sum();
            rates.push(rows as f64 / SATURATION_WINDOW.as_secs_f64());
        }
    }
    eprintln!("perfbench: per-cycle verdict p50 (ms) {verdict_p50:.4?}");
    let sat_rows: usize = sat_done.iter().flatten().map(|&(_, rows)| rows).sum();

    let replay_time: f64 = replayed.values().map(|r| r.elapsed.as_secs_f64()).sum();
    let replay_rows: usize = replayed.values().map(|r| r.rows).sum();
    let (setup_s, fit_s, train_samples_per_s, _, _) = setup_medians(setups);
    eprintln!(
        "perfbench: fits (s) {:?}",
        setups
            .iter()
            .map(|s| s.fit.as_secs_f64())
            .collect::<Vec<_>>()
    );
    eprintln!(
        "perfbench: open-loop {open_verdicts} verdicts, closed-loop {} verdicts, saturation \
         {sat_rows} rows, {} frames sent",
        verdict_ms.iter().map(judged).sum::<usize>(),
        served.sends.len()
    );
    Ok(vec![
        ("verdict_p50_ms", median(verdict_p50)),
        ("peak_rows_per_s", interquartile_mean(rates)),
        ("setup_s", setup_s),
        ("fit_s", fit_s),
        ("train_samples_per_s", train_samples_per_s),
        ("validate_rows_per_s", replay_rows as f64 / replay_time),
        ("detect_accuracy", median_of(qualities, |q| q.accuracy)),
        ("detect_recall", median_of(qualities, |q| q.recall)),
        (
            "repair_clean_share",
            median_of(qualities, |q| q.repair_clean_share),
        ),
        ("peak_rss_mib", peak_rss_mib()),
    ])
}

/// Rows repaired per fit at most.
const REPAIR_ROWS: usize = 4096;

/// Distance between the seeds of successive fits in one run.
const FIT_SEED_STRIDE: u64 = 7_919;

fn reload(model_path: &std::path::Path) -> BenchResult<Box<dyn dquag_validate::Validator>> {
    dquag_persist::load_validator(model_path).map_err(|e| format!("reload: {e}"))
}

/// Detection and repair quality of one fitted model on the workload's
/// frames.
struct Quality {
    accuracy: f64,
    recall: f64,
    repair_clean_share: f64,
}

fn median_of(qualities: &[Quality], f: fn(&Quality) -> f64) -> f64 {
    median(qualities.iter().map(f).collect())
}

/// Judge every distinct frame in process, at the granularity the ground
/// truth has: rows for mixed traffic (injection marks rows), whole batches
/// for the Table 1 protocol. Then repair flagged dirty frames and
/// re-validate the repaired copies.
fn quality(set: &FrameSet, validator: &dyn dquag_validate::Validator) -> BenchResult<Quality> {
    let (mut tp, mut tn, mut fp, mut fn_) = (0u64, 0u64, 0u64, 0u64);
    let mut tally = |truth: bool, judged: bool| match (truth, judged) {
        (true, true) => tp += 1,
        (false, false) => tn += 1,
        (false, true) => fp += 1,
        (true, false) => fn_ += 1,
    };
    let (mut residual_flagged, mut repaired_rows) = (0usize, 0usize);
    for frame in &set.frames {
        let verdict = validator
            .validate(&frame.df)
            .map_err(|e| format!("validate: {e}"))?;
        let flagged = verdict.flagged_instances.clone().unwrap_or_default();
        match &frame.dirty_rows {
            Some(rows) => {
                for (row, &truth) in rows.iter().enumerate() {
                    tally(truth, flagged.binary_search(&row).is_ok());
                }
            }
            None => tally(frame.truth_dirty, verdict.is_dirty),
        }
        if repaired_rows < REPAIR_ROWS && frame.truth_dirty && verdict.is_dirty {
            let repaired = validator
                .repair(&frame.df, &verdict)
                .map_err(|e| format!("repair: {e}"))?
                .ok_or("DQuaG returned no repair")?;
            let after = validator
                .validate(&repaired)
                .map_err(|e| format!("re-validate: {e}"))?;
            residual_flagged += after.flagged_instances.map_or(0, |v| v.len());
            repaired_rows += frame.df.n_rows();
        }
    }
    eprintln!("perfbench: detection: tp {tp} tn {tn} fp {fp} fn {fn_}");
    Ok(Quality {
        accuracy: (tp + tn) as f64 / (tp + tn + fp + fn_).max(1) as f64,
        recall: tp as f64 / (tp + fn_).max(1) as f64,
        repair_clean_share: 1.0 - residual_flagged as f64 / repaired_rows.max(1) as f64,
    })
}

#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    args: &Args,
    set: &FrameSet,
    served: &Served,
    replayed: &HashMap<(usize, usize), Replayed>,
    calls: &[trace::ServedCall],
    setups: &[SetupTimes],
    state: &dquag_core::DquagModelState,
    failed: u64,
    attempted: u64,
) -> BenchResult<Vec<(&'static str, f64)>> {
    let w = &args.workload;
    let epoch = served
        .sends
        .iter()
        .map(|s| s.due)
        .min()
        .unwrap_or_else(Instant::now);
    let mut tracer = Tracer::default();

    // Pair engine-side calls with seqs: copies of one payload content are
    // judged in seq order, so per fingerprint the i-th call is the i-th seq.
    let mut seqs_by_fp: HashMap<u64, Vec<(u64, usize)>> = HashMap::new();
    for (i, send) in served.sends.iter().enumerate() {
        if let Some(seq) = send.seq {
            let fp = replayed[&(send.frame, send.format)].fingerprint;
            seqs_by_fp.entry(fp).or_default().push((seq, i));
        }
    }
    let mut calls_by_fp: HashMap<u64, Vec<&trace::ServedCall>> = HashMap::new();
    for call in calls {
        calls_by_fp.entry(call.fingerprint).or_default().push(call);
    }
    let mut call_of_send: HashMap<usize, &trace::ServedCall> = HashMap::new();
    for (fp, mut seqs) in seqs_by_fp {
        seqs.sort_unstable();
        let mut matched = calls_by_fp.remove(&fp).unwrap_or_default();
        matched.sort_by_key(|c| c.start);
        for ((_, send), call) in seqs.into_iter().zip(matched) {
            call_of_send.insert(send, call);
        }
    }

    let by_seq: HashMap<u64, &serve::Received> =
        served.received.iter().map(|r| (r.seq, r)).collect();
    let (mut lag, mut edge, mut busy, mut emit, mut verdict) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut wait, mut ack) = (vec![], vec![]);
    for (i, send) in served.sends.iter().enumerate() {
        if send.phase != Phase::Open {
            continue;
        }
        let Some(received) = send.seq.and_then(|seq| by_seq.get(&seq)) else {
            continue;
        };
        verdict.push(ms(received.at - send.due));
        if let Some(acked) = send.acked {
            ack.push(ms(acked.saturating_duration_since(send.due)));
        }
        let Some(call) = call_of_send.get(&i) else {
            continue;
        };
        let root = tracer.record("frame", send.due, received.at, None, send.seq);
        tracer.record("loadgen.lag", send.due, send.sent, Some(root), send.seq);
        tracer.record("edge_wait", send.sent, call.start, Some(root), send.seq);
        tracer.record("validate", call.start, call.end, Some(root), send.seq);
        tracer.record("emit", call.end, received.at, Some(root), send.seq);
        lag.push(ms(send.sent.saturating_duration_since(send.due)));
        edge.push(ms(call.start.saturating_duration_since(send.sent)));
        busy.push(ms(call.end - call.start));
        emit.push(ms(received.at.saturating_duration_since(call.end)));
        if let Some(acked) = send.acked {
            // Signed: the worker often starts before the ACK reaches the
            // client, which reads as a negative wait.
            wait.push(signed_ms(acked, call.start));
        }
    }
    let segments = [mean(&lag), mean(&edge), mean(&busy), mean(&emit)];
    let attributed_share = segments.iter().sum::<f64>() / mean(&verdict);
    eprintln!(
        "perfbench: trace covers {} of {} open-loop frames; segments (ms) lag {:.4} edge+wait {:.4} \
         validate {:.4} emit {:.4} = {:.4} vs mean verdict {:.4}",
        lag.len(),
        verdict.len(),
        segments[0],
        segments[1],
        segments[2],
        segments[3],
        segments.iter().sum::<f64>(),
        mean(&verdict)
    );

    // Engine-side busy time, all segments.
    let busy_all: Vec<f64> = calls.iter().map(|c| ms(c.end - c.start)).collect();
    let mut sat_busy = 0.0;
    let mut sat_length = 0.0;
    for &(sat_start, sat_end) in &served.saturation {
        sat_length += ms(sat_end - sat_start);
        sat_busy += calls
            .iter()
            .map(|c| {
                ms(c.end
                    .min(sat_end)
                    .saturating_duration_since(c.start.max(sat_start)))
            })
            .sum::<f64>();
    }
    let busy_share = sat_busy / (w.replicas as f64 * sat_length);
    let overhead: f64 = calls.iter().map(|c| ms(c.overhead)).sum();
    let served_rows: usize = served
        .sends
        .iter()
        .filter(|s| s.seq.is_some())
        .map(|s| s.rows)
        .sum();
    let served_busy_per_row = busy_all.iter().sum::<f64>() / served_rows.max(1) as f64;
    let replay_time: f64 = replayed.values().map(|r| ms(r.elapsed)).sum();
    let replay_rows: usize = replayed.values().map(|r| r.rows).sum();
    let replay_per_row = replay_time / replay_rows.max(1) as f64;
    let dirty_served = served
        .received
        .iter()
        .filter(|r| r.verdict.as_ref().is_some_and(|(d, _)| *d))
        .count();

    // Layer replays.
    let clean = w.dataset.generate_clean(w.train_rows, args.seed);
    let layers = layers::replay(w, set, state, &clean, &mut tracer);
    let (_, fit_s, _, save_ms, load_ms) = setup_medians(setups);
    let train_samples = setups[0].train_samples as f64;
    let fit_other_s = fit_s
        - (layers.encoder_fit_ms + layers.graph_build_ms) / 1e3
        - layers.train_step_ms / 1e3 * train_samples / workload::TRAIN_BATCH as f64;
    let validate_us_per_row = replay_per_row * 1e3;
    let per_frame_rows = w.frame_rows as f64;
    // A served `validate` opens one armed session per frame, paying the
    // session set-up and one checksum; the rest is encode and forward.
    let verdict_self = validate_us_per_row
        - layers.encode_us_per_row
        - layers.forward_us_per_row
        - (layers.session_open_us + layers.checksum_us) / per_frame_rows;

    let trace_path = PathBuf::from(".bench_build")
        .join("perfbench")
        .join(format!("trace-{}-{}.jsonl", w.name, args.seed));
    tracer
        .write(&trace_path, epoch)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans.len(),
        trace_path.display()
    );

    Ok(vec![
        (
            "sources.decode_us_per_row_csv",
            layers.decode_csv_us_per_row,
        ),
        (
            "sources.decode_us_per_row_ndjson",
            layers.decode_ndjson_us_per_row,
        ),
        ("sources.ack_p50_ms", percentile(&ack, 0.50)),
        ("sources.ack_p90_ms", percentile(&ack, 0.90)),
        ("sources.refused", served.refused as f64),
        ("sources.bytes_in", served.bytes_out as f64),
        ("tabular.csv_parse_us_per_row", layers.csv_parse_us_per_row),
        ("tabular.encode_us_per_row", layers.encode_us_per_row),
        ("tabular.encoder_fit_ms", layers.encoder_fit_ms),
        ("graph.build_ms", layers.graph_build_ms),
        ("gnn.session_open_us", layers.session_open_us),
        ("gnn.checksum_us", layers.checksum_us),
        ("gnn.forward_us_per_row", layers.forward_us_per_row),
        (
            "gnn.forward_passes_per_frame",
            layers.forward_passes_per_frame,
        ),
        ("gnn.repair_us_per_row", layers.repair_us_per_row),
        ("gnn.train_step_ms", layers.train_step_ms),
        ("tensor.matmul_gflops", layers.matmul_gflops),
        ("core.validate_us_per_row", validate_us_per_row),
        ("core.verdict_self_us_per_row", verdict_self),
        ("core.fit_other_s", fit_other_s),
        ("validate.busy_p50_ms", percentile(&busy_all, 0.50)),
        ("validate.busy_p99_ms", percentile(&busy_all, 0.99)),
        ("validate.busy_share", busy_share),
        (
            "validate.dirty_share",
            dirty_served as f64 / served.received.len().max(1) as f64,
        ),
        (
            "validate.serve_vs_replay",
            served_busy_per_row / replay_per_row,
        ),
        ("stream.wait_p50_ms", percentile(&wait, 0.50)),
        ("stream.wait_p99_ms", percentile(&wait, 0.99)),
        ("stream.emit_lag_p50_ms", percentile(&emit, 0.50)),
        ("stream.emit_lag_p99_ms", percentile(&emit, 0.99)),
        ("stream.queue_depth_max", served.queue_depth_max as f64),
        (
            "stream.dropped",
            (served.stats.dropped + served.stats.rejected) as f64,
        ),
        ("stream.block_timeouts", served.stats.timed_out as f64),
        ("stream.failed", served.stats.failed as f64),
        (
            "stream.deadline_exceeded",
            served.stats.deadline_exceeded as f64,
        ),
        (
            "stream.failed_share",
            failed as f64 / attempted.max(1) as f64,
        ),
        ("persist.save_ms", save_ms),
        ("persist.load_ms", load_ms),
        (
            "loadgen.lag_p99_ms",
            percentile(&lag_all_open(served), 0.99),
        ),
        ("loadgen.frames_sent", served.sends.len() as f64),
        ("trace.segment_loadgen_lag_ms", segments[0]),
        ("trace.segment_edge_wait_ms", segments[1]),
        ("trace.segment_validate_ms", segments[2]),
        ("trace.segment_emit_lag_ms", segments[3]),
        ("trace.verdict_p50_ms", percentile(&verdict, 0.50)),
        ("trace.verdict_p90_ms", percentile(&verdict, 0.90)),
        ("trace.verdict_p99_ms", percentile(&verdict, 0.99)),
        ("trace.ack_p99_ms", percentile(&ack, 0.99)),
        ("trace.attributed_share", attributed_share),
        (
            "trace.overhead_share",
            overhead / busy_all.iter().sum::<f64>(),
        ),
    ])
}

fn lag_all_open(served: &Served) -> Vec<f64> {
    served
        .sends
        .iter()
        .filter(|s| s.phase == Phase::Open)
        .map(|s| ms(s.sent.saturating_duration_since(s.due)))
        .collect()
}
