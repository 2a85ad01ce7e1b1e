//! `make bench`: run the wall-clock kernel suite and print it. With
//! `BENCH_OUT=<path>` it is also written out as a snapshot — a perf PR
//! records `BENCH_OUT=$PWD/BENCH_pr<N>.json make bench`, and nothing
//! else ever writes a committed snapshot.

use faasim_bench::wallclock;

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    println!("\n=== wall-clock kernel suite (host time, not virtual time) ===\n");
    let suite = wallclock::run_suite();
    println!("{}", suite.render());

    match std::env::var("BENCH_OUT") {
        Ok(path) => {
            std::fs::write(&path, suite.to_json()).expect("write snapshot json");
            println!("wrote {path}");
        }
        Err(_) => println!("BENCH_OUT not set: no snapshot written"),
    }
}
