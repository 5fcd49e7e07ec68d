//! Scoped-thread shard runner.
//!
//! The simulation substrate is single-threaded *per shard*: one
//! [`crate::Simulator`] owns one event queue and one virtual clock.
//! Embedders that can partition their workload into independent shards
//! (sessions that never exchange events) run one simulator per shard on
//! its own OS thread and merge the outputs afterwards. This module is
//! the thread plumbing: it owns no simulation state and imposes no
//! ordering of its own, so determinism is entirely the embedder's merge
//! discipline.

/// Wall-clock timing of one shard worker, for throughput accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardTiming {
    /// Shard index, `0..shard_count`.
    pub shard: usize,
    /// Wall-clock milliseconds the worker spent inside its closure.
    pub wall_ms: f64,
}

/// Run `work` once per input shard, each on its own scoped thread, and
/// return the outputs **in shard order** together with per-shard wall
/// times.
///
/// * With zero or one input the closure runs inline on the caller's
///   thread — no spawn cost for the `shards = 1` path.
/// * A panicking worker is *caught* and surfaced as an `Err` carrying
///   the panic payload's message instead of taking the caller down.
///   Supervisors use this to restart individual shards (e.g. from a
///   journal) while the surviving shards' outputs stand. `ShardTiming`
///   covers the time up to the panic for failed workers.
/// * Output order is the input order, never completion order, so a
///   deterministic merge downstream sees a deterministic input.
pub fn run_shards_catch<I, O, F>(inputs: Vec<I>, work: F) -> Vec<(Result<O, String>, ShardTiming)>
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    let timed = |shard: usize, input: I, work: &F| {
        let started = std::time::Instant::now();
        let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(shard, input)))
            .map_err(|payload| panic_message(payload.as_ref()));
        let timing = ShardTiming {
            shard,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        };
        (output, timing)
    };
    if inputs.len() <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(shard, input)| timed(shard, input, &work))
            .collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(shard, input)| scope.spawn(move || timed(shard, input, work)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker double-panicked"))
            .collect()
    })
}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads cover `panic!`; anything else becomes `"panic"`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_in_shard_order() {
        // Make later shards finish first; order must still be input order.
        let inputs = vec![30u64, 20, 10, 0];
        let out = run_shards_catch(inputs, |shard, sleep_ms| {
            std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
            shard * 2
        });
        let values: Vec<usize> = out.iter().map(|(v, _)| *v.as_ref().unwrap()).collect();
        assert_eq!(values, vec![0, 2, 4, 6]);
        for (i, (_, t)) in out.iter().enumerate() {
            assert_eq!(t.shard, i);
            assert!(t.wall_ms >= 0.0);
        }
    }

    #[test]
    fn single_shard_runs_inline() {
        let id = std::thread::current().id();
        let out = run_shards_catch(vec![()], |_, ()| std::thread::current().id());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Ok(id));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out = run_shards_catch(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn catch_surfaces_one_panic_without_killing_the_rest() {
        let out = run_shards_catch(vec![0u32, 1, 2, 3], |_, v| {
            if v == 2 {
                panic!("shard {v} exploded");
            }
            v * 10
        });
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].0, Ok(0));
        assert_eq!(out[1].0, Ok(10));
        assert_eq!(out[2].0, Err("shard 2 exploded".to_string()));
        assert_eq!(out[3].0, Ok(30));
        for (i, (_, t)) in out.iter().enumerate() {
            assert_eq!(t.shard, i);
        }
    }

    #[test]
    fn catch_works_on_the_inline_single_shard_path() {
        let out = run_shards_catch(vec![()], |_, ()| -> u8 { panic!("inline boom") });
        assert_eq!(out[0].0, Err("inline boom".to_string()));
    }
}
