//! Model-checked stand-ins for `std::sync` types.
//!
//! Every operation is routed through the runtime in [`crate::rt`], which
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

        /// Swaps in `v`, returning the previous value.
        pub fn swap(&self, v: u64, order: Ordering) -> u64 {
            rt::atomic_rmw(self.0.loc(), order, |_| v)
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

    /// Model-checked `AtomicBool`.
    #[derive(Debug)]
    pub struct AtomicBool(Cell);

    impl AtomicBool {
        /// Creates a new atomic initialised to `v`.
        pub const fn new(v: bool) -> Self {
            Self(Cell::new(v as u64))
        }

        /// Loads the value; non-SeqCst loads may observe stale stores.
        pub fn load(&self, order: Ordering) -> bool {
            rt::atomic_load(self.0.loc(), order) != 0
        }

        /// Stores `v`.
        pub fn store(&self, v: bool, order: Ordering) {
            rt::atomic_store(self.0.loc(), v as u64, order);
        }

        /// Swaps in `v`, returning the previous value.
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            rt::atomic_rmw(self.0.loc(), order, |_| v as u64) != 0
        }
    }

    /// Model-checked `AtomicPtr`.
    pub struct AtomicPtr<T> {
        id: OnceLock<usize>,
        init: *mut T,
    }

    // SAFETY: the pointer is treated purely as a value; all shared-state
    // mutation happens inside the runtime's state mutex.
    unsafe impl<T> Send for AtomicPtr<T> {}
    // SAFETY: as above — the raw pointer field is never dereferenced here.
    unsafe impl<T> Sync for AtomicPtr<T> {}

    impl<T> AtomicPtr<T> {
        /// Creates a new atomic pointer (lazily registered on first use).
        pub fn new(p: *mut T) -> Self {
            Self { id: OnceLock::new(), init: p }
        }

        fn loc(&self) -> usize {
            *self.id.get_or_init(|| rt::register_location(self.init as usize as u64))
        }

        /// Loads the pointer; non-SeqCst loads may observe stale stores.
        pub fn load(&self, order: Ordering) -> *mut T {
            rt::atomic_load(self.loc(), order) as usize as *mut T
        }

        /// Stores `p`.
        pub fn store(&self, p: *mut T, order: Ordering) {
            rt::atomic_store(self.loc(), p as usize as u64, order);
        }

        /// Swaps in `p`, returning the previous pointer.
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            rt::atomic_rmw(self.loc(), order, |_| p as usize as u64) as usize as *mut T
        }
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("AtomicPtr(..)")
        }
    }
}

/// Heap layout of a model [`Arc`]. `repr(C)` so `from_raw` can recover the
/// header from a `*const T` pointing at `value` with a constant offset.
#[repr(C)]
struct ArcInner<T> {
    slot: usize,
    value: T,
}

/// Model-checked `Arc` with registry-backed use-after-free, double-free and
/// leak detection. The pointee outlives the model iteration (the driver
/// deallocates between iterations), so a buggy protocol reads stale — but
/// valid — memory and the checker reports it instead of segfaulting.
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
        // SAFETY: the allocation is kept alive by the driver until the end
        // of the iteration, so the pointer is always dereferenceable; the
        // runtime separately reports protocol violations.
        unsafe { &*self.ptr }
    }

    /// Consumes the `Arc` without dropping the strong count, returning a
    /// pointer to the value.
    pub fn into_raw(this: Self) -> *const T {
        let p = &this.inner().value as *const T;
        std::mem::forget(this);
        p
    }

    /// Rebuilds an `Arc` from an [`Arc::into_raw`] pointer, claiming one
    /// strong reference.
    ///
    /// # Safety
    /// `ptr` must come from `Arc::<T>::into_raw` and the claimed reference
    /// must not have been reconstructed already.
    pub unsafe fn from_raw(ptr: *const T) -> Self {
        let inner = (ptr as *const u8)
            .wrapping_sub(std::mem::offset_of!(ArcInner<T>, value))
            as *const ArcInner<T>;
        Self { ptr: inner }
    }

    /// Increments the strong count behind a raw pointer; the model fails if
    /// the allocation was already released.
    ///
    /// # Safety
    /// `ptr` must come from `Arc::<T>::into_raw`.
    pub unsafe fn increment_strong_count(ptr: *const T) {
        let inner = (ptr as *const u8)
            .wrapping_sub(std::mem::offset_of!(ArcInner<T>, value))
            as *const ArcInner<T>;
        // SAFETY: the allocation is driver-owned until the iteration ends,
        // so reading the slot id is always in-bounds; liveness is what the
        // registry call below verifies.
        let slot = unsafe { (*inner).slot };
        rt::arc_incr(slot);
    }

    /// Current strong count (a scheduling point like any atomic read).
    pub fn strong_count(this: &Self) -> usize {
        rt::arc_strong_count(this.inner().slot) as usize
    }

    /// Whether two `Arc`s point at the same allocation.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        std::ptr::eq(a.ptr, b.ptr)
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
        // reference only marks the allocation freed in the registry.
        let _ = rt::arc_decr(self.inner().slot);
    }
}

impl<T> std::ops::Deref for Arc<T> {
    type Target = T;

    fn deref(&self) -> &T {
        rt::arc_check_alive(self.inner().slot);
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
/// `lock()` always returns `Ok`.
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
