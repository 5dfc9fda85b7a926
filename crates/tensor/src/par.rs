//! An ordered parallel map, for the two places that have work to split:
//! per-example gradients in [`crate::train`] and per-tree fits in the
//! materials-science forest.

use dlhub_sync::thread;

/// `(0..n).map(f).collect()` with the range cut into one contiguous
/// chunk per available core, each chunk on a scoped thread. Results
/// come back in index order, so a fold over them gives the same bits
/// whatever the core count.
pub fn map<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let threads = thread::available_parallelism()
        .map_or(1, |cores| cores.get())
        .min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                scope.spawn(move || (start..n.min(start + chunk)).map(f).collect::<Vec<U>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("par::map worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn map_is_the_serial_map_at_every_length() {
        for n in [0, 1, 2, 7, 64, 1000] {
            assert_eq!(
                super::map(n, |i| i * 2),
                (0..n).map(|i| i * 2).collect::<Vec<_>>()
            );
        }
    }
}
