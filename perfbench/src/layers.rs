//! Per-layer replays for the traced run: each layer's public function
//! called on the workload's own frames (or fitted state), every call
//! recorded as a span under one `replay` root.

use crate::frames::{self, FrameSet};
use crate::median;
use crate::trace::Tracer;
use crate::workload::{Workload, TRAIN_BATCH};
use dquag_core::DquagModelState;
use dquag_gnn::DquagNetwork;
use dquag_graph::knowledge::{build_feature_graph, StatisticalOracle};
use dquag_sources::{decode_batch, WireFormat};
use dquag_tabular::encode::DatasetEncoder;
use dquag_tabular::{csv, DataFrame};
use dquag_tensor::init::{uniform_symmetric, InitRng};
use dquag_tensor::optim::Adam;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rows each per-row replay covers at most, so traced runs stay short.
const REPLAY_ROWS: usize = 8192;
/// Repetitions of the fixed-cost probes (session open, checksum).
const PROBE_REPS: usize = 200;
/// Training steps timed; the median is reported.
const TRAIN_STEPS: usize = 9;

pub struct LayerTimes {
    pub decode_csv_us_per_row: f64,
    pub decode_ndjson_us_per_row: f64,
    pub csv_parse_us_per_row: f64,
    pub encode_us_per_row: f64,
    pub encoder_fit_ms: f64,
    pub graph_build_ms: f64,
    pub session_open_us: f64,
    pub checksum_us: f64,
    pub forward_us_per_row: f64,
    pub forward_passes_per_frame: f64,
    pub repair_us_per_row: f64,
    pub train_step_ms: f64,
    pub matmul_gflops: f64,
}

/// Frames covered by the per-row replays: a prefix of the send order.
fn replay_frames(set: &FrameSet) -> Vec<usize> {
    let mut rows = 0;
    set.order
        .iter()
        .copied()
        .take_while(|&f| {
            rows += set.frames[f].df.n_rows();
            rows <= REPLAY_ROWS.max(set.frames[f].df.n_rows())
        })
        .collect()
}

fn per_row_us(total: Duration, rows: usize) -> f64 {
    total.as_secs_f64() * 1e6 / rows.max(1) as f64
}

/// Passes over the replayed frames; each layer reports its median pass.
const PASSES: usize = 3;

/// Run `pass` `PASSES` times and return the median, over passes, of the
/// total duration of the `name` spans one pass records.
fn passes(tracer: &mut Tracer, name: &str, mut pass: impl FnMut(&mut Tracer)) -> Duration {
    let totals: Vec<f64> = (0..PASSES)
        .map(|_| {
            let before = tracer.total(name);
            pass(tracer);
            (tracer.total(name) - before).as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(totals))
}

pub fn replay(
    w: &Workload,
    set: &FrameSet,
    state: &DquagModelState,
    clean: &DataFrame,
    tracer: &mut Tracer,
) -> LayerTimes {
    let root_start = Instant::now();
    let root = tracer.record("replay", root_start, root_start, None, None);
    let parent = Some(root);
    let schema = w.dataset.schema();
    let picked = replay_frames(set);
    let rows: usize = picked.iter().map(|&f| set.frames[f].df.n_rows()).sum();

    // sources + tabular: decode, parse and encode the workload's own frames.
    let decode_csv = passes(tracer, "sources.decode_csv", |tracer| {
        for &f in &picked {
            tracer.time("sources.decode_csv", parent, || {
                black_box(decode_batch(
                    WireFormat::Csv,
                    &set.frames[f].payloads[frames::CSV],
                    &schema,
                ))
                .expect("own frames decode")
            });
        }
    });
    let decode_ndjson = passes(tracer, "sources.decode_ndjson", |tracer| {
        for &f in &picked {
            tracer.time("sources.decode_ndjson", parent, || {
                black_box(decode_batch(
                    WireFormat::Ndjson,
                    &set.frames[f].payloads[frames::NDJSON],
                    &schema,
                ))
                .expect("own frames decode")
            });
        }
    });
    let csv_parse = passes(tracer, "tabular.csv_parse", |tracer| {
        for &f in &picked {
            tracer.time("tabular.csv_parse", parent, || {
                black_box(csv::from_csv_bytes(
                    &set.frames[f].payloads[frames::CSV],
                    &schema,
                ))
                .expect("own frames parse")
            });
        }
    });
    let encode = passes(tracer, "tabular.encode", |tracer| {
        for &f in &picked {
            tracer.time("tabular.encode", parent, || {
                black_box(state.encoder.transform(&set.frames[f].df))
                    .expect("frames match the encoder")
            });
        }
    });
    let encoded: Vec<Vec<Vec<f32>>> = picked
        .iter()
        .map(|&f| {
            let data = state
                .encoder
                .transform(&set.frames[f].df)
                .expect("frames match the encoder");
            (0..data.n_rows()).map(|r| data.row(r).to_vec()).collect()
        })
        .collect();
    let encoder_fit_ms = median(
        (0..3)
            .map(|_| {
                let started = Instant::now();
                tracer.time("tabular.encoder_fit", parent, || {
                    black_box(DatasetEncoder::fit_many(&[clean]))
                });
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );
    let graph_build_ms = median(
        (0..3)
            .map(|_| {
                let started = Instant::now();
                tracer.time("graph.build", parent, || {
                    black_box(build_feature_graph(
                        clean,
                        &StatisticalOracle::default(),
                        state.config.oracle_sample_size,
                    ))
                    .expect("graph builds on clean data")
                });
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );

    // gnn: the fitted network rebuilt from its exported state.
    let mut model_config = state.config.model;
    model_config.seed = state.config.seed;
    let mut network = DquagNetwork::new(&state.graph, model_config);
    network
        .import_params(&state.params)
        .expect("exported params import");
    for _ in 0..PROBE_REPS {
        tracer.time("gnn.session_open", parent, || {
            black_box(network.inference_session())
        });
        tracer.time("gnn.checksum", parent, || {
            black_box(network.params().checksum())
        });
    }
    let batch = state.config.inference_batch_size.max(1);
    let mut forward_passes = 0;
    let forward = passes(tracer, "gnn.forward", |tracer| {
        forward_passes = 0;
        for frame_rows in &encoded {
            let session = network.inference_session();
            for chunk in frame_rows.chunks(batch) {
                tracer.time("gnn.forward", parent, || {
                    black_box(network.score_errors(&session, chunk))
                });
            }
            forward_passes += session.forward_passes();
        }
    });
    let repair = passes(tracer, "gnn.repair", |tracer| {
        for frame_rows in &encoded {
            let session = network.inference_session();
            for chunk in frame_rows.chunks(batch) {
                tracer.time("gnn.repair", parent, || {
                    black_box(network.score_repairs(&session, chunk))
                });
            }
        }
    });

    // Training steps on a fresh copy of the fitted network.
    let train = state.encoder.transform(clean).expect("clean data encodes");
    let train_rows: Vec<Vec<f32>> = (0..train.n_rows().min(TRAIN_BATCH * 4))
        .map(|r| train.row(r).to_vec())
        .collect();
    let mut trainee = DquagNetwork::new(&state.graph, model_config);
    let mut optimizer = Adam::with_learning_rate(state.config.learning_rate);
    let steps: Vec<f64> = train_rows
        .chunks(TRAIN_BATCH)
        .filter(|c| c.len() == TRAIN_BATCH)
        .cycle()
        .take(TRAIN_STEPS)
        .map(|chunk| {
            let started = Instant::now();
            tracer.time("gnn.train_step", parent, || {
                black_box(trainee.train_batch(chunk, &mut optimizer))
            });
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // tensor: matmul at the stacked forward shape of one inference tile.
    let hidden = state.config.model.hidden_dim;
    let n_features = state.encoder.n_features();
    let tile_rows = (32 * 1024 / (n_features * hidden).max(1)).max(1);
    let m_rows = w.frame_rows.min(tile_rows) * n_features;
    let mut rng = InitRng::seeded(7);
    let a = uniform_symmetric(m_rows, hidden, 1.0, &mut rng);
    let b = uniform_symmetric(hidden, hidden, 1.0, &mut rng);
    let reps = (2_000_000 / (m_rows * hidden)).clamp(20, 20_000);
    let started = Instant::now();
    for _ in 0..reps {
        tracer.time("tensor.matmul", parent, || {
            black_box(a.matmul(&b)).expect("shapes agree")
        });
    }
    let matmul_s = started.elapsed().as_secs_f64();
    let flops = 2.0 * (m_rows * hidden * hidden) as f64 * reps as f64;

    tracer.spans[root].end = Instant::now();
    LayerTimes {
        decode_csv_us_per_row: per_row_us(decode_csv, rows),
        decode_ndjson_us_per_row: per_row_us(decode_ndjson, rows),
        csv_parse_us_per_row: per_row_us(csv_parse, rows),
        encode_us_per_row: per_row_us(encode, rows),
        encoder_fit_ms,
        graph_build_ms,
        session_open_us: tracer.total("gnn.session_open").as_secs_f64() * 1e6 / PROBE_REPS as f64,
        checksum_us: tracer.total("gnn.checksum").as_secs_f64() * 1e6 / PROBE_REPS as f64,
        forward_us_per_row: per_row_us(forward, rows),
        forward_passes_per_frame: forward_passes as f64 / picked.len().max(1) as f64,
        repair_us_per_row: per_row_us(repair, rows),
        train_step_ms: if steps.is_empty() {
            f64::NAN
        } else {
            median(steps)
        },
        matmul_gflops: flops / matmul_s.max(1e-12) / 1e9,
    }
}
