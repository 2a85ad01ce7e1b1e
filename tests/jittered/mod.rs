//! Table 1 on the jittered 2018 profile, for the tests that check how its
//! latency spreads behave. The experiment itself always runs on the exact
//! (mean-latency) profile, so these tests swap the profile in the backend.

use faasim::experiments::clients::{Backend, Opened, Plain, Run};
use faasim::experiments::table1::{self, Table1Params, Table1Result};
use faasim::{Cloud, CloudProfile};

/// [`Plain`], but every cloud it opens runs the jittered 2018 profile,
/// whatever profile the body asks for.
struct Jittered;

impl Backend for Jittered {
    type Clients = <Plain as Backend>::Clients;
    type Invoker = <Plain as Backend>::Invoker;

    fn open(&self, _: CloudProfile, seed: u64) -> Opened<Jittered> {
        Plain.open(CloudProfile::aws_2018(), seed)
    }

    fn audit(&self, _: &Cloud) -> Vec<String> {
        Vec::new()
    }
}

/// Table 1 with realistic latency spreads instead of exact means.
pub fn table1_run(params: &Table1Params, seed: u64) -> Table1Result {
    let mut run = Run::new(Jittered);
    let result = table1::run_on(&mut run, params, seed);
    assert!(run.failures.is_empty(), "failed: {:#?}", run.failures);
    result
}
