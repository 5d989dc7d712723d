//! Chunked multithreaded matching with scoped threads.
//!
//! The classic multicore port of AC: partition the input with the X-byte
//! overlap (`ac_core::chunked`), give each worker a stripe of chunks, merge
//! the per-worker match lists. The exactly-once ownership rule means
//! workers never communicate during the scan — the same property the GPU
//! kernels rely on.

use ac_core::chunked::{match_chunk, ChunkPlan};
use ac_core::{AcAutomaton, AcError, Match};

/// Worker/chunk geometry for a parallel scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Owned bytes per chunk.
    pub chunk_size: usize,
}

impl ParallelConfig {
    /// A sensible default: one thread per available core, 64 KB chunks.
    pub fn default_for_host() -> Self {
        ParallelConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            chunk_size: 64 * 1024,
        }
    }
}

/// Find all matches using `cfg.threads` workers. Matches are returned
/// sorted; the result is bit-identical to the serial matcher's (sorted)
/// output.
pub fn par_find_all(
    ac: &AcAutomaton,
    text: &[u8],
    cfg: &ParallelConfig,
) -> Result<Vec<Match>, AcError> {
    if cfg.threads == 0 {
        return Err(AcError::ZeroWorkers);
    }
    let plan = ChunkPlan::for_automaton(text.len(), cfg.chunk_size, ac)?;
    let n_chunks = plan.chunk_count();
    if n_chunks == 0 {
        return Ok(Vec::new());
    }
    let workers = cfg.threads.min(n_chunks);
    let mut results: Vec<Vec<Match>> = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let plan = &plan;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                // Strided chunk assignment balances tail effects.
                let mut i = w;
                while i < n_chunks {
                    match_chunk(ac, text, plan.chunk(i), &mut local);
                    i += workers;
                }
                local
            }));
        }
        for h in handles {
            results.push(h.join().expect("matcher worker never panics"));
        }
    });

    let mut merged: Vec<Match> = results.into_iter().flatten().collect();
    merged.sort();
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::PatternSet;
    use proptest::prelude::*;

    fn ac(pats: &[&str]) -> AcAutomaton {
        AcAutomaton::build(&PatternSet::from_strs(pats).unwrap())
    }

    #[test]
    fn equals_serial_on_paper_example() {
        let ac = ac(&["he", "she", "his", "hers"]);
        let text = b"ushers rush to see his hers heshe";
        let mut want = ac.find_all(text);
        want.sort();
        for threads in [1, 2, 4, 7] {
            let got = par_find_all(
                &ac,
                text,
                &ParallelConfig {
                    threads,
                    chunk_size: 5,
                },
            )
            .unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_rejected() {
        let ac = ac(&["x"]);
        assert_eq!(
            par_find_all(
                &ac,
                b"xx",
                &ParallelConfig {
                    threads: 0,
                    chunk_size: 8
                }
            ),
            Err(AcError::ZeroWorkers)
        );
    }

    #[test]
    fn empty_text_ok() {
        let ac = ac(&["x"]);
        let got = par_find_all(
            &ac,
            b"",
            &ParallelConfig {
                threads: 4,
                chunk_size: 8,
            },
        )
        .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn more_threads_than_chunks() {
        let ac = ac(&["ab"]);
        let got = par_find_all(
            &ac,
            b"abab",
            &ParallelConfig {
                threads: 64,
                chunk_size: 2,
            },
        )
        .unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn default_config_is_usable() {
        let cfg = ParallelConfig::default_for_host();
        assert!(cfg.threads >= 1);
        assert!(cfg.chunk_size > 0);
    }

    proptest! {
        /// Parallel ≡ serial for arbitrary thread counts and chunk sizes.
        #[test]
        fn parallel_equals_serial(
            pats in proptest::collection::vec("[abc]{1,5}", 1..6),
            text in "[abc]{0,300}",
            threads in 1usize..9,
            chunk in 1usize..64,
        ) {
            let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
            let ac = AcAutomaton::build(&PatternSet::from_strs(&refs).unwrap());
            let got = par_find_all(&ac, text.as_bytes(),
                &ParallelConfig { threads, chunk_size: chunk }).unwrap();
            let mut want = ac.find_all(text.as_bytes());
            want.sort();
            prop_assert_eq!(got, want);
        }
    }
}
