//! Model-checked stand-ins for `std::sync` types.
//!
//! Every operation is routed through the runtime in `crate::rt`, which
//! turns it into a scheduling point and (for atomics) a read of the
//! location's store history. The types only work inside [`crate::model`].

use crate::rt;
use std::cell::UnsafeCell;
use std::sync::OnceLock;

/// Model-checked atomics with the `std::sync::atomic` API.
pub mod atomic {
    use crate::rt;
    use std::sync::OnceLock;

    pub use std::sync::atomic::Ordering;

    /// Lazily registered atomic location storing values as `u64`.
    #[derive(Debug)]
    struct Cell {
        id: OnceLock<usize>,
        init: u64,
    }

    impl Cell {
        const fn new(init: u64) -> Self {
            Self { id: OnceLock::new(), init }
        }

        fn loc(&self) -> usize {
            *self.id.get_or_init(|| rt::register_location(self.init))
        }
    }

    /// Model-checked `AtomicUsize`.
    #[derive(Debug)]
    pub struct AtomicUsize(Cell);

    impl AtomicUsize {
        /// Creates a new atomic initialised to `v`.
        pub const fn new(v: usize) -> Self {
            Self(Cell::new(v as u64))
        }

        /// Loads the value; non-SeqCst loads may observe stale stores.
        pub fn load(&self, order: Ordering) -> usize {
            rt::atomic_load(self.0.loc(), order) as usize
        }

        /// Stores `v`.
        pub fn store(&self, v: usize, order: Ordering) {
            rt::atomic_store(self.0.loc(), v as u64, order);
        }

        /// Adds `v`, returning the previous value.
        pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
            rt::atomic_rmw(self.0.loc(), order, |old| {
                (old as usize).wrapping_add(v) as u64
            }) as usize
        }

        /// Subtracts `v`, returning the previous value.
        pub fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
            rt::atomic_rmw(self.0.loc(), order, |old| {
                (old as usize).wrapping_sub(v) as u64
            }) as usize
        }

        /// Swaps in `v`, returning the previous value.
        pub fn swap(&self, v: usize, order: Ordering) -> usize {
            rt::atomic_rmw(self.0.loc(), order, |_| v as u64) as usize
        }
    }

    /// Model-checked `AtomicU64`.
    #[derive(Debug)]
    pub struct AtomicU64(Cell);

    impl AtomicU64 {
        /// Creates a new atomic initialised to `v`.
        pub const fn new(v: u64) -> Self {
            Self(Cell::new(v))
        }

        /// Loads the value; non-SeqCst loads may observe stale stores.
        pub fn load(&self, order: Ordering) -> u64 {
            rt::atomic_load(self.0.loc(), order)
        }

        /// Stores `v`.
        pub fn store(&self, v: u64, order: Ordering) {
            rt::atomic_store(self.0.loc(), v, order);
        }

        /// Adds `v`, returning the previous value.
        pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
            rt::atomic_rmw(self.0.loc(), order, |old| old.wrapping_add(v))
        }

        /// Subtracts `v`, returning the previous value.
        pub fn fetch_sub(&self, v: u64, order: Ordering) -> u64 {
            rt::atomic_rmw(self.0.loc(), order, |old| old.wrapping_sub(v))
        }

        /// Stores the maximum of the current value and `v`, returning the
        /// previous value.
        pub fn fetch_max(&self, v: u64, order: Ordering) -> u64 {
            rt::atomic_rmw(self.0.loc(), order, |old| old.max(v))
        }

        /// Stores the minimum of the current value and `v`, returning the
        /// previous value.
        pub fn fetch_min(&self, v: u64, order: Ordering) -> u64 {
            rt::atomic_rmw(self.0.loc(), order, |old| old.min(v))
        }
    }
}

/// Heap layout of a model [`Arc`]: its registry slot beside the value.
struct ArcInner<T> {
    slot: usize,
    value: T,
}

/// Model-checked `Arc` whose strong count lives in the runtime's registry,
/// so an allocation still referenced when the execution ends fails it as a
/// leak. The driver frees every allocation between iterations, so a model
/// that fails part-way leaks nothing into the test process.
pub struct Arc<T> {
    ptr: *const ArcInner<T>,
}

// SAFETY: same bounds as std's Arc — the value is shared across threads.
unsafe impl<T: Send + Sync> Send for Arc<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for Arc<T> {}

/// # Safety
/// `p` must be a pointer produced by `Box::into_raw` on an `ArcInner<T>`,
/// and must be passed here at most once.
unsafe fn drop_inner<T>(p: usize) {
    // SAFETY: `p` was produced by `Box::into_raw` on an `ArcInner<T>` in
    // `Arc::new` and is freed exactly once by the exploration driver.
    unsafe { drop(Box::from_raw(p as *mut ArcInner<T>)) }
}

impl<T> Arc<T> {
    /// Allocates a new reference-counted value (strong count 1).
    pub fn new(value: T) -> Self {
        let boxed = Box::into_raw(Box::new(ArcInner { slot: usize::MAX, value }));
        let slot = rt::arc_register((drop_inner::<T>, boxed as usize));
        // SAFETY: `boxed` is the unique, live pointer we just allocated.
        unsafe { (*boxed).slot = slot };
        Self { ptr: boxed }
    }

    fn inner(&self) -> &ArcInner<T> {
        // SAFETY: the driver frees the allocation only after the iteration
        // ends, and this `Arc` is one of its strong references, so the
        // pointer is dereferenceable.
        unsafe { &*self.ptr }
    }
}

impl<T> Clone for Arc<T> {
    fn clone(&self) -> Self {
        rt::arc_incr(self.inner().slot);
        Self { ptr: self.ptr }
    }
}

impl<T> Drop for Arc<T> {
    fn drop(&mut self) {
        // Deallocation is deferred to the driver; dropping the last
        // reference only zeroes the count in the registry.
        rt::arc_decr(self.inner().slot);
    }
}

impl<T> std::ops::Deref for Arc<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner().value
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Arc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T: std::fmt::Display> std::fmt::Display for Arc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&**self, f)
    }
}

/// Model-checked mutex with `std::sync::Mutex`'s API. A model thread
/// that panics fails the whole model run, so the lock is never poisoned:
/// `lock()` always returns `Ok`, and `try_lock()` fails only as
/// `WouldBlock`.
pub struct Mutex<T> {
    id: OnceLock<usize>,
    cell: UnsafeCell<T>,
}

// SAFETY: exclusion is enforced by the model scheduler.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex (lazily registered on first lock).
    pub const fn new(value: T) -> Self {
        Self { id: OnceLock::new(), cell: UnsafeCell::new(value) }
    }

    fn mid(&self) -> usize {
        *self.id.get_or_init(rt::register_mutex)
    }

    /// Acquires the lock, blocking the model thread until available.
    pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
        rt::mutex_lock(self.mid());
        Ok(MutexGuard { mx: self })
    }

    /// Acquires the lock if it is free; a scheduling point either way.
    pub fn try_lock(&self) -> std::sync::TryLockResult<MutexGuard<'_, T>> {
        if rt::mutex_try_lock(self.mid()) {
            Ok(MutexGuard { mx: self })
        } else {
            Err(std::sync::TryLockError::WouldBlock)
        }
    }

    /// Returns the inner value, consuming the mutex.
    pub fn into_inner(self) -> T {
        self.cell.into_inner()
    }

    /// Exclusive access without locking (requires `&mut`).
    pub fn get_mut(&mut self) -> &mut T {
        self.cell.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Mutex(..)")
    }
}

/// Guard for [`Mutex`]; unlocks (a scheduling point) on drop.
pub struct MutexGuard<'a, T> {
    mx: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the model scheduler guarantees this thread holds the lock.
        unsafe { &*self.mx.cell.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive while the lock is held.
        unsafe { &mut *self.mx.cell.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        rt::mutex_unlock(self.mx.mid());
    }
}
