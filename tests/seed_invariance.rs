//! The sweep keys a config that draws no randomness without its seed and
//! serves all its seeds from one run. That is only sound if the predicate
//! behind it, `SimConfig::draws_randomness`, agrees with the simulator:
//! every smoke-preset config of the registry (the scorecard and the
//! ablations) that it calls seed-invariant must give byte-identical
//! `SimResult`s at seeds 1 and 2. A config it calls random must differ,
//! so the comparison can fail.

use experiments::{ExperimentId, Params};
use std::collections::HashSet;
use tcp_sim::{SimConfig, StackSim};

/// The serialized result of `config` run at `seed`.
fn run_at(config: &SimConfig, seed: u64) -> String {
    let result = StackSim::new(SimConfig {
        seed,
        ..config.clone()
    })
    .run();
    serde_json::to_string(&result).unwrap()
}

#[test]
fn seed_invariant_configs_give_identical_results_at_every_seed() {
    let params = Params::smoke();
    let mut seen = HashSet::new();
    let (mut invariant, mut random) = (Vec::new(), Vec::new());
    let ids = ExperimentId::ALL.into_iter().chain(ExperimentId::ABLATIONS);
    for spec in ids.flat_map(|id| id.plan(&params)) {
        let seedless = SimConfig {
            seed: 0,
            ..spec.config.clone()
        };
        if !seen.insert(serde_json::to_string(&seedless).unwrap()) {
            continue;
        }
        if spec.config.draws_randomness() {
            random.push(spec);
        } else {
            invariant.push(spec);
        }
    }
    assert!(
        invariant.len() > random.len(),
        "most of the registry is wired: {} invariant, {} random",
        invariant.len(),
        random.len()
    );

    // Two workers, each taking every other config.
    std::thread::scope(|scope| {
        for half in 0..2 {
            let invariant = &invariant;
            scope.spawn(move || {
                for spec in invariant.iter().skip(half).step_by(2) {
                    assert_eq!(
                        run_at(&spec.config, 1),
                        run_at(&spec.config, 2),
                        "{}: called seed-invariant, but the seed moved its result",
                        spec.label
                    );
                }
            });
        }
    });

    let wifi = random
        .iter()
        .find(|spec| spec.config.path.forward_var.is_some())
        .expect("the registry runs a WiFi cell");
    assert_ne!(
        run_at(&wifi.config, 1),
        run_at(&wifi.config, 2),
        "{}: a random config's seeds must differ",
        wifi.label
    );
}
