// The ingest write hook blocks a request worker: `submit` waits for the
// publisher to acknowledge the batch instead of enqueueing and returning.
// Mirrors the live workspace's `IngestPipeline::submit` root — `POST
// /ingest` calls it on the workers that run queued predicts, so it must
// never wait on the publisher.
// path: crates/app/src/ingest.rs
// root: crates/app/src/ingest.rs :: IngestHook::submit
// expect: reactor-blocking
use std::sync::{Condvar, Mutex};

pub struct IngestHook {
    pending: Mutex<Vec<u64>>,
    published: Condvar,
}

impl IngestHook {
    pub fn submit(&self, item: u64) {
        let mut g = self.pending.lock().unwrap();
        g.push(item);
        // Waiting for the publish turns every writer into a synchronous
        // caller — the defect this fixture pins.
        let _g = self.published.wait(g).unwrap();
    }
}
