//! Domain scenario: how many advice bits buy how much speed (paper §3).
//!
//! A coordinator with perfect knowledge of tonight's participant set can
//! hand every node the same `b`-bit hint before the contention window
//! opens.  Table 2 of the paper gives the tight trade-offs; this example
//! sweeps `b` and prints the measured rounds for all four protocol
//! variants next to their theory columns.  All four are constructed by
//! name through the registry and run through the `Simulation` builder —
//! the deterministic pair as per-node protocols under an explicit
//! placement, the randomized pair as uniform protocols.
//!
//! Run with:
//!
//! ```text
//! cargo run --example perfect_advice_tradeoff
//! ```

use contention_predictions::protocols::ProtocolSpec;
use contention_predictions::sim::Simulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1024usize; // log n = 10, log log n ≈ 3.3
    let active: Vec<usize> = vec![97, 130, 255, 256, 700, 701, 900];
    let k = active.len();
    let reps = 500;

    println!("universe n = {n}, |P| = {k} active nodes");
    println!(
        "{:>2} | {:>10} | {:>10} | {:>16} | {:>13}",
        "b", "det no-CD", "det CD", "rand no-CD E[r]", "rand CD E[r]"
    );
    println!("{}", "-".repeat(70));

    for b in 0..=10usize {
        // Deterministic protocols: per-node state machines driven once
        // under the fixed placement (their budgets default to the declared
        // worst case).
        let scan = Simulation::builder()
            .protocol(
                ProtocolSpec::new("det-advice-no-cd")
                    .universe(n)
                    .advice_bits(b),
            )
            .participant_ids(active.clone())
            .trials(1)
            .seed(5)
            .run()?;
        let tree = Simulation::builder()
            .protocol(
                ProtocolSpec::new("det-advice-cd")
                    .universe(n)
                    .advice_bits(b),
            )
            .participant_ids(active.clone())
            .trials(1)
            .seed(5)
            .run()?;

        // Randomized protocols: expected rounds over repetitions.
        let decay = Simulation::builder()
            .protocol(
                ProtocolSpec::new("advised-decay")
                    .universe(n)
                    .participants(k)
                    .advice_bits(b),
            )
            .participants(k)
            .max_rounds(64 * n)
            .trials(reps)
            .seed(6)
            .run()?;
        let willard = Simulation::builder()
            .protocol(
                ProtocolSpec::new("advised-willard")
                    .universe(n)
                    .participants(k)
                    .advice_bits(b),
            )
            .participants(k)
            .trials(reps)
            .seed(6)
            .run()?;

        println!(
            "{b:>2} | {:>10.0} | {:>10.0} | {:>16.2} | {:>13.2}",
            scan.mean_rounds_overall(),
            tree.mean_rounds_overall(),
            decay.mean_rounds_overall(),
            willard.mean_rounds_when_resolved(),
        );
    }

    println!();
    println!(
        "The deterministic columns track n/2^b and log n - b + 1; the randomized \
         columns track log n / 2^b and log log n - b, as in Table 2 of the paper."
    );
    Ok(())
}
