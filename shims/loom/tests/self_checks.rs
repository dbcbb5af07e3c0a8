//! Litmus tests for the model checker itself: known-racy models must fail,
//! known-correct ones must pass, and the memory model must distinguish
//! relaxed from release/acquire.

use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::{thread, Builder};

fn quick() -> Builder {
    Builder { preemption_bound: 2, max_iterations: 100_000, max_steps: 5_000 }
}

#[test]
fn lost_update_is_found() {
    let report = quick().explore(|| {
        let c = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::SeqCst), 2, "load+store is not atomic");
    });
    let failure = report.failure.expect("checker must find the lost update");
    assert!(failure.contains("not atomic"), "unexpected failure: {failure}");
}

#[test]
fn fetch_add_has_no_lost_update() {
    let report = quick().explore(|| {
        let c = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::SeqCst), 2);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.exhausted, "small model should be fully explored");
    assert!(report.iterations > 1, "must explore more than one schedule");
}

#[test]
fn mutex_provides_exclusion() {
    let report = quick().explore(|| {
        let c = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    let mut g = c.lock().unwrap();
                    let v = *g;
                    *g = v + 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*c.lock().unwrap(), 2);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.exhausted);
}

#[test]
fn message_passing_with_release_acquire_is_sound() {
    let report = quick().explore(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "acquire must see the payload");
        }
        t.join().unwrap();
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.exhausted);
}

#[test]
fn message_passing_with_relaxed_flag_is_caught() {
    let report = quick().explore(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Relaxed) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale payload");
        }
        t.join().unwrap();
    });
    let failure = report.failure.expect("relaxed flag must allow a stale payload read");
    assert!(failure.contains("stale payload"), "unexpected failure: {failure}");
}

#[test]
fn use_after_free_is_caught() {
    let report = quick().explore(|| {
        let a = Arc::new(7u64);
        let p = Arc::into_raw(a);
        let addr = p as usize;
        let t = thread::spawn(move || {
            // SAFETY: deliberately drops the only strong reference — the
            // exact bug the checker must catch when the other thread
            // touches `p` afterwards. The shim keeps the allocation alive
            // until the iteration ends, so this is UB for the model, not
            // for the test process.
            drop(unsafe { Arc::from_raw(addr as *const u64) });
        });
        // SAFETY: racing revival of the refcount — in some schedule the
        // drop above already freed the allocation; the checker (not the
        // allocator) is what makes that observable, and it must fail here.
        unsafe { Arc::increment_strong_count(p) };
        // SAFETY: reclaims the reference minted by the increment above on
        // schedules where the increment was still sound.
        drop(unsafe { Arc::from_raw(p) });
        t.join().unwrap();
    });
    let failure = report.failure.expect("checker must find the use-after-free");
    assert!(failure.contains("use-after-free"), "unexpected failure: {failure}");
}

#[test]
fn leaked_arc_is_caught() {
    let report = quick().explore(|| {
        std::mem::forget(Arc::new(1u64));
    });
    let failure = report.failure.expect("checker must flag the leak");
    assert!(failure.contains("leak"), "unexpected failure: {failure}");
}

#[test]
fn double_free_is_caught() {
    let report = quick().explore(|| {
        let a = Arc::new(3u64);
        let p = Arc::into_raw(a);
        // SAFETY: the first reclamation is the legitimate one...
        drop(unsafe { Arc::from_raw(p) });
        // SAFETY: ...and the second is the seeded double free the checker
        // must flag (the shim defers deallocation, so the process survives).
        drop(unsafe { Arc::from_raw(p) });
    });
    let failure = report.failure.expect("checker must flag the double free");
    assert!(failure.contains("free"), "unexpected failure: {failure}");
}

#[test]
fn yield_based_spin_wait_terminates() {
    // Miniature wait_for_readers: the spinner only reruns when the worker
    // has blocked/finished, so the schedule tree stays finite.
    let report = quick().explore(|| {
        let guard = Arc::new(AtomicUsize::new(1));
        let g2 = Arc::clone(&guard);
        let t = thread::spawn(move || {
            g2.fetch_sub(1, Ordering::SeqCst);
        });
        while guard.load(Ordering::SeqCst) != 0 {
            thread::yield_now();
        }
        t.join().unwrap();
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.exhausted);
}

#[test]
fn deadlock_is_reported() {
    let report = quick().explore(|| {
        let a = Arc::new(Mutex::new(0u64));
        let b = Arc::new(Mutex::new(0u64));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
        drop((_ga, _gb));
        t.join().unwrap();
    });
    let failure = report.failure.expect("AB-BA locking must deadlock in some schedule");
    assert!(failure.contains("deadlock"), "unexpected failure: {failure}");
}

#[test]
fn panicking_primitive_outside_model_is_rejected() {
    let err = std::panic::catch_unwind(|| {
        let a = AtomicU64::new(0);
        a.load(Ordering::SeqCst);
    })
    .expect_err("atomics must refuse to run outside loom::model");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("outside loom::model"), "unexpected panic: {msg}");
}
