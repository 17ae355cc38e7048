//! Minimal scoped-thread fan-out: split a slice into contiguous chunks
//! and run one closure per chunk on its own thread, on plain
//! [`std::thread::scope`] instead of an external thread pool (the
//! workspace is dependency-free by design; DESIGN.md §4).
//!
//! No crate in the workspace depends on this one any more: every attack
//! phase is single-threaded. The crate is slated for deletion (ROADMAP
//! item 3).
//!
//! Thread-count policy, shared by every caller ([`resolve`]):
//!
//! 1. an explicit per-call/per-struct knob wins;
//! 2. otherwise the `DU_THREADS` environment variable;
//! 3. otherwise [`std::thread::available_parallelism`].
//!
//! All helpers degrade to a plain serial loop when one thread is
//! requested or the input has at most one chunk, so callers get a serial
//! fallback for free and differential tests can pin `threads = 1`
//! against the parallel configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Environment variable naming the default worker-thread count.
pub const THREADS_ENV: &str = "DU_THREADS";

/// Hardware parallelism of the running machine (at least 1).
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `DU_THREADS` override, if set to a positive integer.
///
/// Unset, empty, unparsable, and `0` all mean "no override".
pub fn env_threads() -> Option<usize> {
    let raw = std::env::var(THREADS_ENV).ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Resolves a worker-thread count: `requested` beats [`env_threads`]
/// beats [`available`]; the result is always at least 1.
pub fn resolve(requested: Option<usize>) -> usize {
    resolve_from(requested, env_threads(), available())
}

/// Pure core of [`resolve`], separated for deterministic testing.
fn resolve_from(requested: Option<usize>, env: Option<usize>, hardware: usize) -> usize {
    requested
        .filter(|&n| n > 0)
        .or(env)
        .unwrap_or(hardware)
        .max(1)
}

/// Chunk length that spreads `len` items over at most `threads` chunks.
fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1)).max(1)
}

/// Runs `f` over contiguous mutable chunks of `data`, one chunk per
/// worker, using at most `threads` scoped threads. `f` receives the
/// chunk's offset into `data` alongside the chunk itself.
///
/// Serial fallback: with `threads <= 1` or a single chunk, `f` runs on
/// the calling thread. The last chunk always runs on the calling thread,
/// so at most `threads - 1` threads are spawned.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let chunk = chunk_len(data.len(), threads);
    if threads <= 1 || chunk >= data.len() {
        f(0, data);
        return;
    }
    std::thread::scope(|scope| {
        let mut offset = 0;
        let mut rest = data;
        let mut last = None;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            if tail.is_empty() {
                last = Some((offset, head)); // run on the calling thread
            } else {
                let fr = &f;
                scope.spawn(move || fr(offset, head));
            }
            offset += take;
            rest = tail;
        }
        if let Some((off, head)) = last {
            f(off, head);
        }
    });
}

/// Maps contiguous chunks of `items` to output vectors on up to
/// `threads` scoped threads and stitches the results back in input
/// order. `f` receives each chunk's offset into `items`.
///
/// `f` must return exactly one output per input item — the stitched
/// vector is asserted to have `items.len()` entries.
///
/// Serial fallback as in [`for_each_chunk_mut`].
pub fn map_chunks<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &[I]) -> Vec<O> + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = chunk_len(items.len(), threads);
    let out = if threads <= 1 || chunk >= items.len() {
        f(0, items)
    } else {
        let parts: Vec<Vec<O>> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .enumerate()
                .map(|(i, part)| {
                    let fr = &f;
                    scope.spawn(move || fr(i * chunk, part))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        parts.into_iter().flatten().collect()
    };
    assert_eq!(
        out.len(),
        items.len(),
        "map_chunks closure must return one output per input"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_precedence_is_request_env_hardware() {
        assert_eq!(resolve_from(Some(3), Some(7), 16), 3);
        assert_eq!(resolve_from(None, Some(7), 16), 7);
        assert_eq!(resolve_from(None, None, 16), 16);
        // a zero request is "no request", never zero threads
        assert_eq!(resolve_from(Some(0), None, 4), 4);
        assert_eq!(resolve_from(None, None, 0), 1);
    }

    #[test]
    fn env_threads_parses_only_positive_integers() {
        // Exercised through the pure resolver to avoid mutating the
        // process environment from a parallel test runner; the parse
        // rules themselves are covered here.
        for (raw, expect) in [
            ("4", Some(4)),
            (" 2 ", Some(2)),
            ("0", None),
            ("", None),
            ("many", None),
        ] {
            let parsed = match raw.trim().parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                _ => None,
            };
            assert_eq!(parsed, expect, "raw {raw:?}");
        }
    }

    #[test]
    fn available_is_at_least_one() {
        assert!(available() >= 1);
        assert!(resolve(None) >= 1);
    }

    #[test]
    fn for_each_chunk_mut_visits_every_item_once() {
        for threads in [1, 2, 3, 8, 100] {
            let mut data: Vec<usize> = vec![0; 37];
            for_each_chunk_mut(&mut data, threads, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += offset + i + 1; // global index + 1
                }
            });
            let expect: Vec<usize> = (1..=37).collect();
            assert_eq!(data, expect, "threads {threads}");
        }
    }

    #[test]
    fn for_each_chunk_mut_handles_empty_and_tiny() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_chunk_mut(&mut empty, 4, |_, _| panic!("no chunks expected"));
        let mut one = vec![1u8];
        for_each_chunk_mut(&mut one, 4, |off, c| {
            assert_eq!(off, 0);
            c[0] = 9;
        });
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn map_chunks_preserves_input_order() {
        let items: Vec<usize> = (0..53).collect();
        for threads in [1, 2, 5, 64] {
            let out = map_chunks(&items, threads, |offset, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        assert_eq!(offset + i, v);
                        v * 2
                    })
                    .collect()
            });
            let expect: Vec<usize> = items.iter().map(|&v| v * 2).collect();
            assert_eq!(out, expect, "threads {threads}");
        }
    }

    #[test]
    fn map_chunks_empty_input_is_empty_output() {
        let out: Vec<u32> = map_chunks(&[] as &[u32], 4, |_, _| Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "one output per input")]
    fn map_chunks_rejects_wrong_arity() {
        let _ = map_chunks(&[1, 2, 3], 1, |_, _| vec![0]);
    }
}
