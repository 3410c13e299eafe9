//! Thread-mode core handle: the async API workloads use to drive a
//! simulated core.
//!
//! A thread-mode worker is an `async` closure over a [`CoreHandle`]. The
//! simulator polls each worker's future on its own thread, inside the
//! frontend step of the cycle, in core order. Every memory op on the handle
//! is an `async fn`: its future posts one command into the core's mailbox
//! and returns `Pending`, and the frontend enqueues that op into the core's
//! LSU. Once the op completes (or a think-time `Nop` expires) the frontend
//! delivers the result into the mailbox and polls the worker again, which
//! runs the worker's host code up to its next op. At every simulated cycle
//! each core is therefore in a well-defined state, and simulated time is
//! independent of host scheduling.
//!
//! [`CoreHandle::rdcycle`] and [`CoreHandle::halted`] take no simulated
//! time; they read the cycle and deadline state the frontend stores into
//! the mailbox before each poll.
//!
//! Workers must await only [`CoreHandle`] ops, one at a time: a worker
//! returning `Pending` without a posted op, or posting a second op while
//! one is in flight, panics. Workers must not synchronize with each other
//! through host-side primitives — all shared state belongs in simulated
//! memory.

use crate::op::Op;
use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// The result of one thread-mode op, delivered by the frontend.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Resp {
    pub value: u64,
    /// The run's cycle budget is exhausted; the workload should wind down.
    pub halted: bool,
}

/// One core's exchange slot between its worker future and the frontend.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// The op the worker posted and now waits on.
    posted: Cell<Option<Op>>,
    /// The posted op's result, once the frontend delivers it.
    resp: Cell<Option<Resp>>,
    /// The cycle of the current poll (what `rdcycle` reads).
    now: Cell<u64>,
    /// Whether the run's deadline had passed at the current poll.
    past_deadline: Cell<bool>,
}

/// Async driver for one simulated core (thread mode).
#[derive(Debug)]
pub struct CoreHandle {
    mailbox: Rc<Mailbox>,
    core: usize,
    halted: Cell<bool>,
}

impl CoreHandle {
    /// The simulated core this handle drives.
    pub fn core_id(&self) -> usize {
        self.core
    }

    async fn exec(&self, op: Op) -> u64 {
        let earlier = self.mailbox.posted.replace(Some(op));
        assert!(
            earlier.is_none(),
            "core {}: a thread-mode worker may have only one op in flight",
            self.core
        );
        let resp = poll_fn(|_| match self.mailbox.resp.take() {
            Some(resp) => Poll::Ready(resp),
            None => Poll::Pending,
        })
        .await;
        if resp.halted {
            self.halted.set(true);
        }
        resp.value
    }

    /// Performs a 64-bit load; resolves once the value is available.
    pub async fn load(&self, addr: u64) -> u64 {
        self.exec(Op::Load { addr }).await
    }

    /// Performs a 64-bit store; resolves once the store is accepted by the
    /// memory system (BOOM commit semantics, §3.3).
    pub async fn store(&self, addr: u64, value: u64) {
        self.exec(Op::Store { addr, value }).await;
    }

    /// Compare-and-swap; returns the old value (success iff it equals
    /// `expected`).
    pub async fn cas(&self, addr: u64, expected: u64, new: u64) -> u64 {
        self.exec(Op::Cas {
            addr,
            expected,
            new,
        })
        .await
    }

    /// Atomic fetch-and-add; returns the old value.
    pub async fn fetch_add(&self, addr: u64, operand: u64) -> u64 {
        self.exec(Op::FetchAdd { addr, operand }).await
    }

    /// Atomic swap; returns the old value.
    pub async fn swap(&self, addr: u64, operand: u64) -> u64 {
        self.exec(Op::Swap { addr, operand }).await
    }

    /// Issues `CBO.CLEAN`; resolves once the flush unit buffers it (§5.2)
    /// — the writeback itself proceeds asynchronously.
    pub async fn clean(&self, addr: u64) {
        self.exec(Op::Clean { addr }).await;
    }

    /// Issues `CBO.FLUSH`; resolves once the flush unit buffers it.
    pub async fn flush(&self, addr: u64) {
        self.exec(Op::Flush { addr }).await;
    }

    /// Issues `CBO.INVAL` — discards every cached copy without writing
    /// dirty data back (dangerous; exposes whatever main memory holds).
    pub async fn inval(&self, addr: u64) {
        self.exec(Op::Inval { addr }).await;
    }

    /// `FENCE RW, RW` extended with writeback completion (§5.3): resolves
    /// once every older memory op *and every pending writeback* is done.
    pub async fn fence(&self) {
        self.exec(Op::Fence).await;
    }

    /// Occupies the core for `cycles` of non-memory work (think time).
    pub async fn work(&self, cycles: u64) {
        if cycles > 0 {
            self.exec(Op::Nop { cycles }).await;
        }
    }

    /// Reads the cycle CSR (`RDCYCLE`, §7.1) without consuming simulated
    /// time.
    pub fn rdcycle(&self) -> u64 {
        if self.mailbox.past_deadline.get() {
            self.halted.set(true);
        }
        self.mailbox.now.get()
    }

    /// Whether the run's cycle budget has been exhausted — workload loops
    /// should poll this and return.
    pub fn halted(&self) -> bool {
        self.halted.get()
    }

    /// Explicitly ends the workload by dropping the handle; the worker
    /// finishes when its future returns.
    pub fn finish(self) {}
}

/// A worker future as the frontend polls it: type-erased, with its result
/// already routed to the caller's output slot.
type WorkerFuture<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// One live thread-mode core: the worker's future and its mailbox. Owned
/// by the thread-mode run loop and lent to the frontend step each cycle.
pub(crate) struct Worker<'a> {
    mailbox: Rc<Mailbox>,
    future: WorkerFuture<'a>,
}

impl<'a> Worker<'a> {
    /// Builds core `core`'s worker from its closure; the worker's result
    /// lands in `out` when its future completes.
    pub(crate) fn new<F, Fut, R>(core: usize, worker: F, out: &'a mut Option<R>) -> Self
    where
        F: FnOnce(CoreHandle) -> Fut,
        Fut: Future<Output = R> + 'a,
    {
        let mailbox = Rc::new(Mailbox::default());
        let fut = worker(CoreHandle {
            mailbox: Rc::clone(&mailbox),
            core,
            halted: Cell::new(false),
        });
        Worker {
            mailbox,
            future: Box::pin(async move { *out = Some(fut.await) }),
        }
    }

    /// Hands the worker the result of its in-flight op.
    pub(crate) fn deliver(&self, resp: Resp) {
        self.mailbox.resp.set(Some(resp));
    }

    /// Runs the worker's host code at cycle `now` up to its next op.
    /// Returns that op, or `None` once the worker has returned.
    ///
    /// # Panics
    ///
    /// Panics if the worker panics, or if it is pending without having
    /// posted an op (it awaited something other than a [`CoreHandle`] op).
    pub(crate) fn poll(&mut self, now: u64, past_deadline: bool) -> Option<Op> {
        self.mailbox.now.set(now);
        self.mailbox.past_deadline.set(past_deadline);
        let mut cx = Context::from_waker(Waker::noop());
        match self.future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => None,
            Poll::Pending => Some(self.mailbox.posted.take().expect(
                "a thread-mode worker may await only CoreHandle ops \
                 (it returned Pending without posting one)",
            )),
        }
    }
}
