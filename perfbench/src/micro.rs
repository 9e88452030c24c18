//! Micro-phases that time one layer in isolation through its public API:
//! compiled stage plans, the GEMM kernels at the wide model's shapes, and
//! the stage scheduler's pick over many in-flight tasks.

use crate::stats::median;
use eugene_nn::StagedNetwork;
use eugene_sched::{Fifo, Scheduler, TaskView};
use eugene_tensor::Matrix;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` repeatedly (after a short warm-up) for about `budget`, at
/// least `min_iters` times, and returns the median call in microseconds.
fn median_us(budget: Duration, min_iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_iters || (start.elapsed() < budget && samples.len() < 100_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&mut samples)
}

/// Deterministic fill in `[-1, 1)`.
fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut rng = crate::SplitMix(salt);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.unit() as f32 * 2.0 - 1.0)
            .collect(),
    )
}

/// Median `StagePlan::execute` time of `stage` at `rows`.
pub fn plan_us(network: &StagedNetwork, stage: usize, rows: usize) -> f64 {
    let plan = network
        .stage_plan(stage, rows)
        .expect("every benchmark stage compiles");
    let width = if stage == 0 {
        network.input_dim()
    } else {
        network.stage_output_dim(stage - 1)
    };
    let hidden = filled(rows, width, 11 + stage as u64);
    let raw = filled(rows, network.input_dim(), 13);
    median_us(Duration::from_millis(60), 20, || {
        black_box(plan.execute(network, black_box(&hidden), black_box(&raw)));
    })
}

/// One GEMM measurement: `[m x k] * [k x n]`.
pub struct Gemm {
    pub micros: f64,
    /// Multiply-adds counted as two operations.
    pub ops: f64,
    /// Bytes of the operands and result, computed from tensor sizes.
    pub bytes: f64,
}

impl Gemm {
    pub fn gflops(&self) -> f64 {
        self.ops / self.micros / 1e3
    }

    pub fn gbps(&self) -> f64 {
        self.bytes / self.micros / 1e3
    }
}

/// f32 and Int8 GEMM at `m x k x n`.
pub fn gemm(m: usize, k: usize, n: usize) -> (Gemm, Gemm) {
    let a = filled(m, k, 17);
    let b = filled(k, n, 19);
    let ops = 2.0 * (m * k * n) as f64;
    let budget = Duration::from_millis(150);
    let f32_us = median_us(budget, 20, || {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    let qb = b.quantized_rhs();
    let i8_us = median_us(budget, 20, || {
        black_box(black_box(&a).matmul_quantized(black_box(&qb)));
    });
    let out = (m * n * 4) as f64;
    (
        Gemm {
            micros: f32_us,
            ops,
            bytes: ((m * k + k * n) * 4) as f64 + out,
        },
        Gemm {
            micros: i8_us,
            ops,
            // Activations are quantized to one byte per element on the fly.
            bytes: (m * k + k * n) as f64 + out,
        },
    )
}

/// Median `Scheduler::assign` time of the FIFO policy the servers run,
/// over `tasks` in-flight tasks and two free worker slots.
pub fn assign_us(tasks: usize) -> f64 {
    let observed = [0.4f32, 0.7];
    let views: Vec<TaskView<'_>> = (0..tasks)
        .map(|i| TaskView {
            id: (i * 7919) % tasks,
            stages_done: i % 3,
            num_stages: 3,
            observed: &observed[..i % 3],
            admitted_at: 0,
            deadline_remaining_ms: 50,
            remaining_quanta: 50,
        })
        .collect();
    let mut fifo = Fifo::new();
    median_us(Duration::from_millis(100), 10, || {
        black_box(fifo.assign(black_box(&views), 2));
    })
}
