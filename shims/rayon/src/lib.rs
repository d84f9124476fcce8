//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate is patched in (`[patch.crates-io]` in the root manifest). It
//! implements the subset of rayon's data-parallel API the workspace uses —
//! `into_par_iter` on ranges/vectors/slices, `par_iter`/`par_iter_mut`,
//! `par_chunks`/`par_chunks_mut`, `map`/`enumerate`/`zip`, and the
//! `for_each`/`collect`/`sum` terminals — with genuine multithreading via
//! `std::thread::scope`.
//!
//! Scheduling model: each terminal splits its producer into at most
//! `current_num_threads()` contiguous parts and runs one OS thread per part.
//! There is no work stealing, so callers that need run-to-run determinism
//! independent of the thread count must do what they already do with real
//! rayon: decompose into a *fixed* number of chunks and reduce in chunk
//! order. `anton2-md`'s serial mode walks the same chunks with a plain
//! sequential iterator instead of calling into this crate, which is what
//! makes its serial and parallel results bitwise equal (see
//! `stream::nonbonded_forces_streamed`). Splits here are contiguous and
//! ordered, so `collect` always preserves item order.

use std::ops::Range;
use std::sync::Arc;
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

/// Number of worker threads a parallel terminal may use. Honors
/// `RAYON_NUM_THREADS`, else the available parallelism. Unlike the real
/// global pool this is re-read on every call (the shim has no persistent
/// pool), which lets the determinism tests vary the thread count within a
/// single process.
pub fn current_num_threads() -> usize {
    static FALLBACK: OnceLock<usize> = OnceLock::new();
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            *FALLBACK.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        })
}

/// Run `a` and `b`, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        (a(), b())
    } else {
        std::thread::scope(|s| {
            let hb = s.spawn(b);
            let ra = a();
            (ra, hb.join().expect("rayon shim: joined task panicked"))
        })
    }
}

// ---------------------------------------------------------------------------
// Producer model: a splittable, sequentially drainable source of items.
// ---------------------------------------------------------------------------

/// A splittable work source. Mirrors rayon's `Producer`, minus the
/// callback plumbing: terminals split it into contiguous parts and drain
/// each part on its own thread via `into_seq_iter`.
#[allow(clippy::len_without_is_empty)]
pub trait Producer: Sized + Send {
    type Item: Send;
    type SeqIter: Iterator<Item = Self::Item>;
    fn len(&self) -> usize;
    /// Split into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);
    fn into_seq_iter(self) -> Self::SeqIter;
}

/// Split `p` into at most `parts` contiguous pieces of near-equal length,
/// in order.
fn split_even<P: Producer>(p: P, parts: usize) -> Vec<P> {
    let n = p.len();
    let parts = parts.clamp(1, n.max(1));
    let mut out = Vec::with_capacity(parts);
    let mut rest = p;
    let mut remaining = n;
    for i in 0..parts - 1 {
        let take = remaining / (parts - i);
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
        remaining -= take;
    }
    out.push(rest);
    out
}

/// Run `consume` over the split parts of `p`, one thread per part, and
/// return the per-part results in part order.
fn drive<P, R, F>(p: P, consume: F) -> Vec<R>
where
    P: Producer,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let parts = split_even(p, current_num_threads());
    if parts.len() == 1 {
        return parts.into_iter().map(&consume).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| s.spawn(|| consume(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rayon shim: worker panicked"))
            .collect()
    })
}

// -- Base producers ---------------------------------------------------------

pub struct RangeProducer {
    range: Range<usize>,
}

impl Producer for RangeProducer {
    type Item = usize;
    type SeqIter = Range<usize>;
    fn len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = self.range.start + index;
        (
            RangeProducer {
                range: self.range.start..mid,
            },
            RangeProducer {
                range: mid..self.range.end,
            },
        )
    }
    fn into_seq_iter(self) -> Self::SeqIter {
        self.range
    }
}

pub struct VecProducer<T: Send> {
    vec: Vec<T>,
}

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type SeqIter = std::vec::IntoIter<T>;
    fn len(&self) -> usize {
        self.vec.len()
    }
    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.vec.split_off(index);
        (self, VecProducer { vec: tail })
    }
    fn into_seq_iter(self) -> Self::SeqIter {
        self.vec.into_iter()
    }
}

pub struct SliceProducer<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type SeqIter = std::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index);
        (SliceProducer { slice: a }, SliceProducer { slice: b })
    }
    fn into_seq_iter(self) -> Self::SeqIter {
        self.slice.iter()
    }
}

pub struct SliceMutProducer<'a, T: Send> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type SeqIter = std::slice::IterMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(index);
        (SliceMutProducer { slice: a }, SliceMutProducer { slice: b })
    }
    fn into_seq_iter(self) -> Self::SeqIter {
        self.slice.iter_mut()
    }
}

pub struct ChunksProducer<'a, T: Sync> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Producer for ChunksProducer<'a, T> {
    type Item = &'a [T];
    type SeqIter = std::slice::Chunks<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let at = (index * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at(at);
        (
            ChunksProducer {
                slice: a,
                size: self.size,
            },
            ChunksProducer {
                slice: b,
                size: self.size,
            },
        )
    }
    fn into_seq_iter(self) -> Self::SeqIter {
        self.slice.chunks(self.size)
    }
}

pub struct ChunksMutProducer<'a, T: Send> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    type SeqIter = std::slice::ChunksMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let at = (index * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        (
            ChunksMutProducer {
                slice: a,
                size: self.size,
            },
            ChunksMutProducer {
                slice: b,
                size: self.size,
            },
        )
    }
    fn into_seq_iter(self) -> Self::SeqIter {
        self.slice.chunks_mut(self.size)
    }
}

// -- Adapters ---------------------------------------------------------------

pub struct MapProducer<P, F> {
    base: P,
    f: Arc<F>,
}

pub struct MapSeqIter<I, F> {
    it: I,
    f: Arc<F>,
}

impl<I, F, R> Iterator for MapSeqIter<I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> R,
{
    type Item = R;
    fn next(&mut self) -> Option<R> {
        self.it.next().map(|x| (self.f)(x))
    }
}

impl<P, F, R> Producer for MapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;
    type SeqIter = MapSeqIter<P::SeqIter, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            MapProducer {
                base: a,
                f: Arc::clone(&self.f),
            },
            MapProducer { base: b, f: self.f },
        )
    }
    fn into_seq_iter(self) -> Self::SeqIter {
        MapSeqIter {
            it: self.base.into_seq_iter(),
            f: self.f,
        }
    }
}

pub struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type SeqIter = EnumerateSeqIter<P::SeqIter>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            EnumerateProducer {
                base: a,
                offset: self.offset,
            },
            EnumerateProducer {
                base: b,
                offset: self.offset + index,
            },
        )
    }
    fn into_seq_iter(self) -> Self::SeqIter {
        EnumerateSeqIter {
            it: self.base.into_seq_iter(),
            next: self.offset,
        }
    }
}

pub struct EnumerateSeqIter<I> {
    it: I,
    next: usize,
}

impl<I: Iterator> Iterator for EnumerateSeqIter<I> {
    type Item = (usize, I::Item);
    fn next(&mut self) -> Option<Self::Item> {
        let x = self.it.next()?;
        let i = self.next;
        self.next += 1;
        Some((i, x))
    }
}

pub struct ZipProducer<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type SeqIter = std::iter::Zip<A::SeqIter, B::SeqIter>;
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(index);
        let (b1, b2) = self.b.split_at(index);
        (ZipProducer { a: a1, b: b1 }, ZipProducer { a: a2, b: b2 })
    }
    fn into_seq_iter(self) -> Self::SeqIter {
        self.a.into_seq_iter().zip(self.b.into_seq_iter())
    }
}

// ---------------------------------------------------------------------------
// The public iterator wrapper and traits.
// ---------------------------------------------------------------------------

/// A parallel iterator over a [`Producer`]. Combinators are lazy; terminals
/// (`for_each`, `collect`, `sum`, ...) split and run on threads.
pub struct ParIter<P> {
    producer: P,
}

/// Alias trait so `use rayon::prelude::*` code that names
/// `IndexedParallelIterator` in bounds keeps compiling; every shim
/// iterator is indexed.
pub trait IndexedParallelIterator: ParallelIterator {}
impl<P: Producer> IndexedParallelIterator for ParIter<P> {}

/// Terminal and adapter methods. Implemented only by [`ParIter`]; a trait so
/// the rayon-style `use` sites and bounds keep working.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;
    type Producer: Producer<Item = Self::Item>;

    fn into_producer(self) -> Self::Producer;

    fn map<R, F>(self, f: F) -> ParIter<MapProducer<Self::Producer, F>>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Send + Sync,
    {
        ParIter {
            producer: MapProducer {
                base: self.into_producer(),
                f: Arc::new(f),
            },
        }
    }

    fn enumerate(self) -> ParIter<EnumerateProducer<Self::Producer>> {
        ParIter {
            producer: EnumerateProducer {
                base: self.into_producer(),
                offset: 0,
            },
        }
    }

    fn zip<B>(
        self,
        other: B,
    ) -> ParIter<ZipProducer<Self::Producer, <B::Iter as ParallelIterator>::Producer>>
    where
        B: IntoParallelIterator,
    {
        ParIter {
            producer: ZipProducer {
                a: self.into_producer(),
                b: other.into_par_iter().into_producer(),
            },
        }
    }

    /// Hint accepted for rayon compatibility; the shim ignores it (splits
    /// are already one-per-thread, the coarsest useful granularity).
    fn with_min_len(self, _min: usize) -> Self {
        self
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        drive(self.into_producer(), |part| {
            part.into_seq_iter().for_each(&f)
        });
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        let parts = drive(self.into_producer(), |part| {
            part.into_seq_iter().collect::<Vec<_>>()
        });
        C::from_ordered_parts(parts)
    }

    /// Per-part sums are combined in part order. Parts depend on the thread
    /// count, so for floating-point items this is only deterministic for a
    /// fixed `RAYON_NUM_THREADS`; callers needing thread-count-independent
    /// results must chunk explicitly (as the MD kernels do).
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        drive(self.into_producer(), |part| part.into_seq_iter().sum::<S>())
            .into_iter()
            .sum()
    }

    fn count(self) -> usize {
        let p = self.into_producer();
        p.len()
    }
}

impl<P: Producer> ParallelIterator for ParIter<P> {
    type Item = P::Item;
    type Producer = P;
    fn into_producer(self) -> P {
        self.producer
    }
}

/// Collection built from ordered per-thread parts.
pub trait FromParallelIterator<T> {
    fn from_ordered_parts(parts: Vec<Vec<T>>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_parts(parts: Vec<Vec<T>>) -> Self {
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

/// Every parallel iterator trivially converts into itself, so adapters can
/// be passed where `IntoParallelIterator` is expected (e.g. `zip`).
impl<P: Producer> IntoParallelIterator for ParIter<P> {
    type Item = P::Item;
    type Iter = ParIter<P>;
    fn into_par_iter(self) -> Self::Iter {
        self
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParIter<RangeProducer>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            producer: RangeProducer { range: self },
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<VecProducer<T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            producer: VecProducer { vec: self },
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = ParIter<SliceProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            producer: SliceProducer { slice: self },
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<SliceProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            producer: SliceProducer { slice: self },
        }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;
    type Iter = ParIter<SliceMutProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            producer: SliceMutProducer { slice: self },
        }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Item = &'a mut T;
    type Iter = ParIter<SliceMutProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            producer: SliceMutProducer { slice: self },
        }
    }
}

pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoParallelIterator,
{
    type Item = <&'a C as IntoParallelIterator>::Item;
    type Iter = <&'a C as IntoParallelIterator>::Iter;
    fn par_iter(&'a self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
where
    &'a mut C: IntoParallelIterator,
{
    type Item = <&'a mut C as IntoParallelIterator>::Item;
    type Iter = <&'a mut C as IntoParallelIterator>::Iter;
    fn par_iter_mut(&'a mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, size: usize) -> ParIter<ChunksProducer<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<ChunksProducer<'_, T>> {
        assert!(size > 0, "chunk size must be nonzero");
        ParIter {
            producer: ChunksProducer { slice: self, size },
        }
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<ChunksMutProducer<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<ChunksMutProducer<'_, T>> {
        assert!(size > 0, "chunk size must be nonzero");
        ParIter {
            producer: ChunksMutProducer { slice: self, size },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_for_each_touches_every_element() {
        let mut v = vec![0u64; 4096];
        v.par_iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = i as u64);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn par_chunks_mut_is_disjoint_and_complete() {
        let mut v = vec![0u8; 1003];
        v.par_chunks_mut(17)
            .for_each(|c| c.iter_mut().for_each(|x| *x += 1));
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn zip_pairs_up() {
        let a = vec![1, 2, 3, 4];
        let mut b = vec![0; 4];
        a.par_iter()
            .zip(b.par_iter_mut())
            .for_each(|(x, y)| *y = *x * 10);
        assert_eq!(b, vec![10, 20, 30, 40]);
    }

    #[test]
    fn sum_matches_serial_for_integers() {
        let s: u64 = (0..10_000usize).into_par_iter().map(|i| i as u64).sum();
        assert_eq!(s, 10_000 * 9_999 / 2);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!((a, b.as_str()), (2, "x"));
    }

    #[test]
    fn empty_inputs_work() {
        let v: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let mut e: Vec<u8> = Vec::new();
        e.par_iter_mut().for_each(|_| {});
    }
}
