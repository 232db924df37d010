// D5 confinement, violating side: the identical worker spawn placed in
// any OTHER simcore module fires D5 — parallel work must route through
// `simcore::pool`, never grow a second thread-creation site.
pub fn spawn_workers(n: usize) -> Vec<std::thread::JoinHandle<()>> {
    (1..n)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("lane-{i}"))
                .spawn(move || {})
                .unwrap_or_else(|e| panic!("spawn lane worker {i}: {e}"))
        })
        .collect()
}
