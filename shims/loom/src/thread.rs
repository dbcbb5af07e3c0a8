//! Model-checked stand-ins for `std::thread`.

use crate::rt;
use std::sync::{Arc as StdArc, Mutex as StdMutex};

/// Handle to a spawned model thread.
pub struct JoinHandle<T> {
    tid: usize,
    result: StdArc<StdMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result. Returns `Err`
    /// if the thread panicked (the model has already failed in that case).
    pub fn join(self) -> Result<T, Box<dyn std::any::Any + Send + 'static>> {
        rt::join_thread(self.tid);
        let taken = match self.result.lock() {
            Ok(mut g) => g.take(),
            Err(p) => p.into_inner().take(),
        };
        match taken {
            Some(v) => Ok(v),
            None => Err(Box::new("loom model thread panicked".to_string())),
        }
    }
}

/// Spawns a model thread. It starts running when the scheduler first picks
/// it, and only ever runs while holding the execution baton.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let result = StdArc::new(StdMutex::new(None));
    let slot = StdArc::clone(&result);
    let tid = rt::spawn_thread(Box::new(move || {
        let v = f();
        match slot.lock() {
            Ok(mut g) => *g = Some(v),
            Err(p) => *p.into_inner() = Some(v),
        }
    }));
    JoinHandle { tid, result }
}

/// Index of the current model thread (0 for the model's root thread).
/// Extension over loom's API, used by sync facades to pick striped slots.
pub fn current_index() -> usize {
    rt::current_tid()
}
