//! Warm-retarget versus cold parity over the keys the sizing service
//! serves: the four templates at `state_cap` 8, 12 and 16 under
//! [`SizingConfig::default`], at budgets spread over each key's serve
//! range `n_queues·cap/3 ..= 1.2·n_queues·cap`.
//!
//! A served reply is a cached [`SolveContext`] retargeted from the
//! key's previous budget, usually ±8 away. For each budget the test
//! retargets a context from both neighbours and compares the answer
//! with a cold [`size_buffers`]:
//!
//! * where the cold predicted loss is positive, the rendered outcome
//!   ([`sizing_outcome_semantic_json`]) must be byte-equal (on these
//!   keys every positive-loss optimum measured has a unique vertex);
//! * where it is zero, the LP optimum is a face rather than a point. A
//!   warm re-solve stays on its neighbour's vertex of that face while
//!   cold lands on a budget-dependent one, so the allocation may differ.
//!   What the face fixes must still agree exactly: the predicted loss,
//!   the budget shadow price and the allocation total.
//!
//! `network_processor/cap16` is such a plateau at every served budget:
//! its warm ±8 and cold allocations differ at 149 (from 141 and 157)
//! and 160 ← 168, among others. It stays in the corpus under the
//! zero-loss rule; the ROADMAP item on the zero-loss plateau tracks the
//! canonical tie-break that would make its bytes equal too.

use socbuf::sizing::wire::sizing_outcome_semantic_json;
use socbuf::sizing::{size_buffers, SizingConfig, SizingOutcome, SolveContext};
use socbuf::soc::{templates, Architecture};

const STEP: usize = 8;
const BUDGETS_PER_KEY: usize = 4;

/// `count` budgets spread evenly over `lo..=hi`, ends included.
fn spread(lo: usize, hi: usize, count: usize) -> Vec<usize> {
    (0..count)
        .map(|k| lo + (hi - lo) * k / (count - 1))
        .collect()
}

fn retarget(arch: &Architecture, config: &SizingConfig, from: usize, to: usize) -> SizingOutcome {
    let mut ctx = SolveContext::new(arch, config);
    ctx.size_buffers(from)
        .unwrap_or_else(|e| panic!("cold start @ {from}: {e}"));
    ctx.size_buffers(to)
        .unwrap_or_else(|e| panic!("retarget {from} -> {to}: {e}"))
}

#[test]
fn warm_retargets_match_cold_on_every_served_key() {
    let named = [
        ("figure1", templates::figure1()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
        ("network_processor", templates::network_processor()),
    ];
    let mut plateau_points = 0;
    for cap in [8, 12, 16] {
        let config = SizingConfig {
            state_cap: cap,
            ..SizingConfig::default()
        };
        for (name, arch) in &named {
            let cells = arch.num_queues() * cap;
            let (lo, hi) = ((cells / 3).max(arch.num_queues()), cells * 6 / 5);
            for budget in spread(lo, hi, BUDGETS_PER_KEY) {
                let cold = size_buffers(arch, budget, &config)
                    .unwrap_or_else(|e| panic!("{name}/cap{cap} cold @ {budget}: {e}"));
                let cold_bytes = sizing_outcome_semantic_json(&cold);
                for from in [budget.saturating_sub(STEP).max(1), budget + STEP] {
                    let warm = retarget(arch, &config, from, budget);
                    let label = format!("{name}/cap{cap} @ {budget} <- {from}");
                    if cold.predicted_loss_rate > 0.0 {
                        assert_eq!(
                            sizing_outcome_semantic_json(&warm),
                            cold_bytes,
                            "{label}: positive-loss point diverged"
                        );
                        continue;
                    }
                    plateau_points += 1;
                    assert_eq!(
                        warm.predicted_loss_rate.to_bits(),
                        cold.predicted_loss_rate.to_bits(),
                        "{label}: predicted loss"
                    );
                    assert_eq!(
                        warm.budget_shadow_price.to_bits(),
                        cold.budget_shadow_price.to_bits(),
                        "{label}: shadow price"
                    );
                    assert_eq!(
                        warm.allocation.total(),
                        cold.allocation.total(),
                        "{label}: allocation total"
                    );
                }
            }
        }
    }
    // The corpus must keep exercising the plateau rule.
    assert!(plateau_points > 0, "no zero-loss point in the corpus");
}
