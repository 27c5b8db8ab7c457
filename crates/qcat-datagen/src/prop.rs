//! A seeded property-test harness over [`Rng`].
//!
//! [`check`] runs a property on `cases` fixed seeds, each at
//! `max_size` (the bound a property puts on what it generates, e.g.
//! its row count). The seeds depend only on the property's name and
//! the case number, so a failing test fails again on every rerun, with
//! no environment variable or flag to set. A failing seed is shrunk by
//! halving: the same seed runs again at `size/2`, `size/4`, … until a
//! size passes, and the smallest failing size is reported together
//! with the property, the case, the seed and the failure message.
//!
//! A property reports a failure by returning `Err` or by panicking
//! (`assert!`); a property whose input misses its precondition returns
//! `Ok(())`.

use crate::rng::Rng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A property's smallest failing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Failure {
    /// The property's name.
    name: String,
    /// The failing case, `0..cases`.
    case: u32,
    /// The seed of that case.
    seed: u64,
    /// The smallest size at which the seed still fails.
    size: usize,
    /// The failure message at that size.
    message: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "property `{}` failed: case {}, seed {:#018x}, size {}: {}",
            self.name, self.case, self.seed, self.size, self.message
        )
    }
}

/// Run `property` on `cases` seeds at `max_size`. If a case fails,
/// panic with its smallest failing run: the property, the case, the
/// seed, the size and the message.
pub fn check<F>(name: &str, cases: u32, max_size: usize, property: F)
where
    F: FnMut(&mut Rng, usize) -> Result<(), String>,
{
    if let Err(failure) = run(name, cases, max_size, property) {
        panic!("{failure}");
    }
}

/// [`check`] without the panic: the first failing case, shrunk.
pub(crate) fn run<F>(
    name: &str,
    cases: u32,
    max_size: usize,
    mut property: F,
) -> Result<(), Failure>
where
    F: FnMut(&mut Rng, usize) -> Result<(), String>,
{
    // FNV-1a of the name, so each property draws its own seeds.
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    for case in 0..cases {
        let seed = base.wrapping_add(u64::from(case));
        let Err(mut message) = attempt(&mut property, seed, max_size) else {
            continue;
        };
        let mut size = max_size;
        while size > 1 {
            match attempt(&mut property, seed, size / 2) {
                Ok(()) => break,
                Err(smaller) => (size, message) = (size / 2, smaller),
            }
        }
        return Err(Failure {
            name: name.to_string(),
            case,
            seed,
            size,
            message,
        });
    }
    Ok(())
}

/// One run of `property` on a fresh stream of `seed`, a panic turned
/// into its message.
fn attempt<F>(property: &mut F, seed: u64, size: usize) -> Result<(), String>
where
    F: FnMut(&mut Rng, usize) -> Result<(), String>,
{
    let mut rng = Rng::seed_from_u64(seed);
    catch_unwind(AssertUnwindSafe(|| property(&mut rng, size))).unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", text.unwrap_or_default()))
    })
}

/// `min..=max(min, size)` draws of `item`: a collection whose length
/// the harness shrinks.
pub fn vec<T>(
    rng: &mut Rng,
    min: usize,
    size: usize,
    mut item: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(min..=size.max(min));
    (0..len).map(|_| item(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_failure_shrinks_by_halving() {
        let failure = run("planted", 16, 64, |_, size| {
            if size >= 5 {
                Err(format!("size {size}"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!((failure.case, failure.size), (0, 8));
        assert_eq!(failure.message, "size 8");
        // The seed replays: a rerun reports the same failure.
        let again = run("planted", 16, 64, |_, size| {
            if size >= 5 {
                Err(format!("size {size}"))
            } else {
                Ok(())
            }
        });
        assert_eq!(again, Err(failure));
    }

    #[test]
    fn panics_fail_with_their_message_and_seed() {
        let mut seeds = Vec::new();
        let failure = run("panicky", 8, 10, |rng, _| {
            let x = rng.next_u64();
            seeds.push(x);
            assert!(seeds.len() < 3, "third draw {x}");
            Ok(())
        })
        .unwrap_err();
        assert_eq!(failure.case, 2);
        assert!(
            failure.message.contains("third draw"),
            "{}",
            failure.message
        );
        assert_eq!(Rng::seed_from_u64(failure.seed).next_u64(), seeds[2]);
        let shown = failure.to_string();
        assert!(
            shown.contains("`panicky`") && shown.contains("case 2"),
            "{shown}"
        );
    }

    #[test]
    fn passing_properties_run_every_case() {
        let mut runs = 0;
        assert_eq!(
            run("fine", 20, 7, |rng, size| {
                runs += 1;
                let v = vec(rng, 1, size, |r| r.gen_range(0..3u32));
                if (1..=7).contains(&v.len()) {
                    Ok(())
                } else {
                    Err(format!("{v:?}"))
                }
            }),
            Ok(())
        );
        assert_eq!(runs, 20);
    }
}
