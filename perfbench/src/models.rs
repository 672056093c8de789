//! The zoo models every workload draws from: names, the global mini-batch
//! per device count, and the constructors (default and tiny configs; gpt2 and
//! gnn_pipe come from their raw DAGs through the `ir::dag` ladder).

use graphpipe::ir::dag::plan_dag;
use graphpipe::prelude::*;
use std::sync::Arc;

/// The seven zoo models, in report order.
pub const ZOO: [&str; 7] = [
    "mmt",
    "dlrm",
    "candle-uno",
    "candle-uno-full",
    "moe",
    "gpt2",
    "gnn_pipe",
];

/// Global mini-batch: the paper's Appendix A.2 sizes (doubling per device
/// count, as `paper_mini_batch` in the bench harness), extended to gpt2
/// and gnn_pipe with the doubling the DAG-ladder goldens use.
pub fn mini_batch(model: &str, gpus: usize) -> u64 {
    let base = match model {
        "mmt" => 16,
        "dlrm" => 64,
        "candle-uno" | "candle-uno-full" => 1024,
        "moe" => 32,
        "gpt2" => 8,
        "gnn_pipe" => 16,
        other => panic!("unknown model {other}"),
    };
    base * gpus as u64
}

/// A model as the zoo provides it.
pub enum Source {
    Model(Arc<SpModel>),
    /// A raw DAG, to be taken through the `ir::dag` ladder.
    Dag(Graph),
}

/// The zoo's default (full-size) or tiny config of `name`.
pub fn source(name: &str, tiny: bool) -> Source {
    let model = |m: SpModel| Source::Model(Arc::new(m));
    match (name, tiny) {
        ("mmt", false) => model(zoo::mmt(&zoo::MmtConfig::default())),
        ("mmt", true) => model(zoo::mmt(&zoo::MmtConfig::tiny())),
        ("dlrm", false) => model(zoo::dlrm(&zoo::DlrmConfig::default())),
        ("candle-uno", false) => model(zoo::candle_uno(&zoo::CandleUnoConfig::default())),
        ("candle-uno", true) => model(zoo::candle_uno(&zoo::CandleUnoConfig::tiny())),
        ("candle-uno-full", false) => model(zoo::candle_uno(&zoo::CandleUnoConfig::full())),
        ("moe", false) => model(zoo::moe(&zoo::MoeConfig::default())),
        ("moe", true) => model(zoo::moe(&zoo::MoeConfig::tiny())),
        ("gpt2", false) => Source::Dag(zoo::gpt2_graph(&zoo::Gpt2Config::default())),
        ("gpt2", true) => Source::Dag(zoo::gpt2_graph(&zoo::Gpt2Config::tiny())),
        ("gnn_pipe", false) => Source::Dag(zoo::gnn_pipe_graph(&zoo::GnnPipeConfig::default())),
        ("gnn_pipe", true) => Source::Dag(zoo::gnn_pipe_graph(&zoo::GnnPipeConfig::tiny())),
        (other, tiny) => panic!(
            "no {} config of {other}",
            if tiny { "tiny" } else { "default" }
        ),
    }
}

/// Takes a raw zoo DAG through the `ir::dag` ladder.
pub fn from_dag(name: &str, graph: Graph) -> SpModel {
    plan_dag(name, graph, &DagOptions::default()).expect("zoo DAGs are valid graphs")
}

/// The model of `name`, ready to plan.
pub fn build(name: &str, tiny: bool) -> Arc<SpModel> {
    match source(name, tiny) {
        Source::Model(model) => model,
        Source::Dag(graph) => Arc::new(from_dag(name, graph)),
    }
}
