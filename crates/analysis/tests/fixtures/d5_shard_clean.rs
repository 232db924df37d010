// D5 confinement, clean side: persistent named workers spawned the way
// a deterministic executor would. Sanctioned ONLY at
// `crates/simcore/src/pool.rs` (see THREAD_POOL_FILE). The same snippet
// at the retired shard executor's path, `crates/simcore/src/shard.rs`,
// fires D5: its sanction was revoked in detlint-v7.
pub fn spawn_workers(n: usize) -> Vec<std::thread::JoinHandle<()>> {
    (1..n)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("shard-{i}"))
                .spawn(move || {})
                .unwrap_or_else(|e| panic!("spawn shard worker {i}: {e}"))
        })
        .collect()
}
