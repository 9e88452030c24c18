//! The three workloads: which model each serves, behind which server,
//! with which traffic.

use crate::drive::{ClientClass, Planned, Traffic};
use crate::stats::SplitMix;
use crate::trace::{SpanLog, TracedEngine, TracedScheduler};
use eugene_bench::{Workload, WorkloadConfig};
use eugene_net::{Gateway, GatewayConfig, GatewayStatus, ShardConfig, ShardRouter};
use eugene_nn::{StagedNetwork, StagedNetworkConfig};
use eugene_sched::{Fifo, Scheduler};
use eugene_serve::{InferenceEngine, OverloadPolicy, RuntimeConfig, RuntimeStats, ServingRuntime};
use eugene_service::StagedNetworkEngine;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Which network a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `eugene_bench::Workload::standard`: the trained three-stage model;
    /// payloads come from its test split.
    Trained,
    /// An untrained three-stage network with 1024-wide stages, stages 0
    /// and 1 quantized to Int8; payloads are seeded random vectors.
    Wide,
}

/// A service class: deadline, admission utility (`None` keeps the
/// gateway default) and share of the traffic.
#[derive(Debug, Clone)]
pub struct Class {
    pub name: &'static str,
    pub deadline_ms: u64,
    pub utility: Option<f64>,
    pub share: f64,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub model: ModelKind,
    pub max_batch: usize,
    pub threshold: f32,
    pub overload: OverloadPolicy,
    /// 0 serves through one direct gateway, otherwise through a shard
    /// router over this many shards.
    pub shards: usize,
    pub classes: Vec<Class>,
    /// Routing keys are drawn from `0..keys` when set.
    pub keys: Option<u64>,
    pub traffic: Traffic,
}

/// Worker threads of every serving runtime.
pub const NUM_WORKERS: usize = 2;
/// Seed of the untrained wide model (fixed: the workload seed only
/// shapes the inputs).
const WIDE_MODEL_SEED: u64 = 0x5EED_1024;
/// Seeded payloads offered to the wide model.
const WIDE_PAYLOADS: usize = 256;

pub fn spec(name: &str) -> Option<Spec> {
    let interactive = |deadline_ms, utility, share| Class {
        name: "interactive",
        deadline_ms,
        utility,
        share,
    };
    match name {
        "interactive_small" => Some(Spec {
            name: "interactive_small",
            model: ModelKind::Trained,
            max_batch: 1,
            threshold: 0.9,
            overload: OverloadPolicy::Kill,
            shards: 0,
            classes: vec![interactive(50, None, 1.0)],
            keys: None,
            traffic: Traffic::Poisson { rps: 500.0 },
        }),
        "bulk_wide" => Some(Spec {
            name: "bulk_wide",
            model: ModelKind::Wide,
            max_batch: 8,
            threshold: 1.0,
            overload: OverloadPolicy::Kill,
            shards: 0,
            classes: vec![Class {
                name: "bulk",
                deadline_ms: 5000,
                utility: None,
                share: 1.0,
            }],
            keys: None,
            traffic: Traffic::Closed { in_flight: 48 },
        }),
        "sharded_overload" => Some(Spec {
            name: "sharded_overload",
            model: ModelKind::Trained,
            max_batch: 1,
            threshold: 0.9,
            overload: OverloadPolicy::Degrade,
            shards: 2,
            classes: vec![
                interactive(20, Some(2.0), 0.7),
                Class {
                    name: "bulk",
                    deadline_ms: 200,
                    utility: Some(1.0),
                    share: 0.3,
                },
            ],
            keys: Some(64),
            traffic: Traffic::Poisson { rps: 6000.0 },
        }),
        _ => None,
    }
}

pub const NAMES: [&str; 3] = ["interactive_small", "bulk_wide", "sharded_overload"];

/// The served networks (one per runtime) plus the payload pool.
pub struct Model {
    pub networks: Vec<Arc<StagedNetwork>>,
    pub payloads: Vec<Vec<f32>>,
    /// Ground-truth labels when the model was trained on labelled data.
    pub labels: Option<Vec<usize>>,
}

/// Builds (for the trained model: trains) the workload's networks. The
/// seed shapes only the payloads.
pub fn build_model(spec: &Spec, seed: u64) -> Model {
    let runtimes = spec.shards.max(1);
    let (network, payloads, labels) = match spec.model {
        ModelKind::Trained => {
            let w = Workload::standard(WorkloadConfig::default());
            let payloads = (0..w.test.len())
                .map(|i| w.test.sample(i).to_vec())
                .collect();
            (w.network, payloads, Some(w.test.labels().to_vec()))
        }
        ModelKind::Wide => {
            let network = wide_network();
            let mut rng = SplitMix(seed ^ 0xB01C);
            let payloads = (0..WIDE_PAYLOADS)
                .map(|_| (0..32).map(|_| rng.unit() as f32 * 2.0 - 1.0).collect())
                .collect();
            (network, payloads, None)
        }
    };
    // Each shard holds its own copy, as separate servers would.
    let networks = (0..runtimes).map(|_| Arc::new(network.clone())).collect();
    Model {
        networks,
        payloads,
        labels,
    }
}

/// The untrained wide network: stages `[[1024],[1024],[1024,1024]]`,
/// stages 0 and 1 quantized to Int8, stage 2 f32.
pub fn wide_network() -> StagedNetwork {
    let config = StagedNetworkConfig {
        input_dim: 32,
        num_classes: 10,
        stage_widths: vec![vec![1024], vec![1024], vec![1024, 1024]],
        dropout: 0.0,
        input_skip: false,
    };
    let mut network = StagedNetwork::new(&config, &mut eugene_tensor::seeded_rng(WIDE_MODEL_SEED));
    network.quantize_stages(&[0, 1]);
    network
}

/// A running server: one direct gateway or a shard router.
pub enum Server {
    Direct(Gateway),
    Sharded(ShardRouter),
}

impl Server {
    pub fn start(spec: &Spec, model: &Model, spans: Option<&SpanLog>) -> std::io::Result<Self> {
        let mut runtimes: Vec<ServingRuntime> = model
            .networks
            .iter()
            .map(|network| {
                let mut engine: Arc<dyn InferenceEngine> =
                    Arc::new(StagedNetworkEngine::new(Arc::clone(network)));
                let mut scheduler: Box<dyn Scheduler> = Box::new(Fifo::new());
                if let Some(log) = spans {
                    engine = Arc::new(TracedEngine::new(engine, log.clone()));
                    scheduler = Box::new(TracedScheduler::new(scheduler, log.clone()));
                }
                ServingRuntime::start(
                    engine,
                    scheduler,
                    RuntimeConfig {
                        num_workers: NUM_WORKERS,
                        confidence_threshold: spec.threshold,
                        max_batch: spec.max_batch,
                        overload: spec.overload,
                        ..RuntimeConfig::default()
                    },
                )
            })
            .collect();
        let mut gateway = GatewayConfig::default();
        for class in &spec.classes {
            if let Some(utility) = class.utility {
                gateway.class_utility.insert(class.name.to_owned(), utility);
            }
        }
        if spec.shards == 0 {
            let runtime = runtimes.pop().expect("one runtime per direct gateway");
            Ok(Server::Direct(Gateway::start(runtime, gateway)?))
        } else {
            Ok(Server::Sharded(ShardRouter::start(
                runtimes,
                ShardConfig {
                    gateway,
                    ..ShardConfig::default()
                },
            )?))
        }
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Server::Direct(g) => g.local_addr(),
            Server::Sharded(r) => r.local_addr(),
        }
    }

    /// Every runtime's gauges.
    pub fn runtime_stats(&self) -> Vec<RuntimeStats> {
        match self {
            Server::Direct(g) => vec![g.stats()],
            Server::Sharded(r) => r.shard_stats(),
        }
    }

    /// Every gateway's edge gauges.
    pub fn statuses(&self) -> Vec<GatewayStatus> {
        match self {
            Server::Direct(g) => vec![g.status()],
            Server::Sharded(r) => (0..r.num_shards()).map(|i| r.shard_status(i)).collect(),
        }
    }

    pub fn failover_replays(&self) -> u64 {
        match self {
            Server::Direct(_) => 0,
            Server::Sharded(r) => r.failover_replays(),
        }
    }

    pub fn shutdown(self) {
        match self {
            Server::Direct(g) => g.shutdown(),
            Server::Sharded(r) => r.shutdown(),
        }
    }
}

/// The client's view of the classes.
pub fn client_classes(spec: &Spec) -> Vec<ClientClass> {
    spec.classes
        .iter()
        .map(|c| ClientClass {
            name: c.name.to_owned(),
            budget_ms: c.deadline_ms,
        })
        .collect()
}

/// Seeded request stream: class by share, payload uniform over the pool,
/// routing key uniform over the key range. Arrival gaps come from a
/// separate stream so the request sequence is the same in both loops.
pub struct SeededSource {
    requests: SplitMix,
    arrivals: SplitMix,
    cumulative: Vec<f64>,
    items: u64,
    keys: Option<u64>,
}

impl SeededSource {
    pub fn new(spec: &Spec, items: usize, seed: u64) -> Self {
        let total: f64 = spec.classes.iter().map(|c| c.share).sum();
        let cumulative = spec
            .classes
            .iter()
            .scan(0.0, |acc, c| {
                *acc += c.share / total;
                Some(*acc)
            })
            .collect();
        Self {
            requests: SplitMix(seed),
            arrivals: SplitMix(seed ^ 0xA11C_E5ED),
            cumulative,
            items: items as u64,
            keys: spec.keys,
        }
    }

    pub fn next_request(&mut self) -> Planned {
        let u = self.requests.unit();
        let class = self
            .cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1);
        let item = self.requests.below(self.items) as usize;
        let key = self.keys.map(|k| self.requests.below(k));
        Planned { class, item, key }
    }

    /// Exponential gap for an open loop at `rps`.
    pub fn next_gap(&mut self, rps: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.arrivals.unit()).ln() / rps)
    }
}
