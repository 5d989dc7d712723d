//! The percentile, SLO, quartile and verdict rules, and the correctness
//! gate on a sabotaged match list.

use ac_core::{AcAutomaton, PatternSet};
use acbench::compare::{verdict, Bound, Summary, Verdict};
use acbench::gate::Gate;
use acbench::stats::{quartiles, slo_rate, tail_percentile, RungSummary};

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(4096), Some(99.0));
    assert_eq!(tail_percentile(256), Some(95.0));
    assert_eq!(tail_percentile(64), Some(75.0));
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None);
}

fn rung(rate: f64, refused: u64, tail_us: f64) -> RungSummary {
    RungSummary {
        rate,
        refused,
        tail_us,
    }
}

#[test]
fn slo_rate_picks_the_highest_rung_within_the_limit() {
    let ladder = [
        rung(200e3, 0, 150.0),
        rung(400e3, 0, 160.0),
        rung(600e3, 0, 290.0),
        rung(800e3, 0, 310.0),
        rung(1.6e6, 900, 550.0),
    ];
    assert_eq!(slo_rate(&ladder, 300.0), 600e3);
    assert_eq!(slo_rate(&ladder, 100.0), 0.0);
}

#[test]
fn one_refused_job_fails_its_rung() {
    let ladder = [rung(1e3, 0, 300.0), rung(2e3, 1, 310.0)];
    assert_eq!(slo_rate(&ladder, 1_000.0), 1e3);
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
}

#[test]
fn verdicts() {
    let bound = Bound {
        lower_is_better: true,
        bound: Some(0.1),
    };
    let a = Summary::of(&[1.00, 1.01, 0.99, 1.00]);
    let same = Summary::of(&[1.02, 1.01, 1.03, 1.02]);
    let slower = Summary::of(&[1.20, 1.21, 1.19, 1.20]);
    let noisy = Summary::of(&[0.5, 1.5, 1.0, 2.0]);
    assert_eq!(verdict(&a, &same, bound), Verdict::WithinBound);
    assert_eq!(verdict(&a, &slower, bound), Verdict::Worse);
    assert_eq!(verdict(&a, &noisy, bound), Verdict::Unresolved);
    let higher_is_better = Bound {
        lower_is_better: false,
        ..bound
    };
    assert_eq!(verdict(&a, &slower, higher_is_better), Verdict::WithinBound);
    assert_eq!(verdict(&slower, &a, higher_is_better), Verdict::Worse);
    let per_layer = Bound {
        lower_is_better: true,
        bound: None,
    };
    assert_eq!(verdict(&a, &slower, per_layer), Verdict::NoBound);
}

#[test]
fn a_sabotaged_match_list_fails_the_gate() {
    let patterns = PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap();
    let ac = AcAutomaton::build(&patterns);
    let mut want = ac.find_all(b"ushers and his heroes");
    want.sort();
    let mut gate = Gate::default();
    assert!(gate.check("untouched", &want.clone(), &want));

    let mut shifted = want.clone();
    shifted[1].end += 1;
    assert!(!gate.check("shifted", &shifted, &want));
    let dropped = &want[..want.len() - 1];
    assert!(!gate.check("dropped", dropped, &want));

    assert_eq!((gate.attempted, gate.failed), (3, 2));
    assert!(!gate.ok());
    assert!(
        gate.notes[0].contains("first difference at #1"),
        "{}",
        gate.notes[0]
    );
    assert!(gate.notes[1].contains("got None"), "{}", gate.notes[1]);
}
