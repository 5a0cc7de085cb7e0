// Package dyntx implements the dynamic transaction layer of Aguilera et
// al.'s distributed B-tree (§2.2 of the Minuet paper), extended with the
// dirty reads that are Minuet's concurrency-control contribution (§3).
//
// A dynamic transaction reads and writes arbitrary objects (B-tree nodes)
// using optimistic concurrency control with backward validation: reads
// accumulate in a read set tagged with the version observed; writes are
// buffered in a write set; Commit executes one minitransaction that
// validates every read-set version and, if validation succeeds, applies the
// write set atomically.
//
// Dirty reads fetch an object *without* adding it to the read set. They let
// B-tree traversals skip validation of interior nodes entirely, shrinking
// the read set to (usually) a single leaf, at the cost of extra safety
// checks in the traversal itself (fence keys; see internal/core).
//
// An attempt reads in those two ways only, Txn.Read and Txn.DirtyRead. Both
// take any number of refs and share one fetch: what the attempt holds
// comes from Txn.Held, the rest go out as one minitransaction per memnode,
// and a Read that addresses one memnode validates the read set on the way
// (piggy-backed validation, §2.2).
//
// Replicated objects — the tip snapshot id, root location, and (in legacy
// mode) the interior sequence-number table — are mirrored at the same
// address on every memnode and updated atomically on all of them, so a read
// or validation can use whichever memnode the transaction already engages.
// That is what lets most B-tree operations commit with one round trip to
// one memnode.
package dyntx

import (
	"errors"
	"fmt"
	"time"

	"minuet/internal/sinfonia"
)

// Ref names an object a transaction can access. Replicated objects live at
// the same address on every memnode; Ptr.Node then names the *preferred*
// replica (usually the proxy's local memnode) and is ignored for identity.
type Ref struct {
	Ptr        sinfonia.Ptr
	Replicated bool
}

// refKey collapses replicated refs to a node-independent identity.
func (r Ref) key() sinfonia.Ptr {
	if r.Replicated {
		return sinfonia.Ptr{Node: -1, Addr: r.Ptr.Addr}
	}
	return r.Ptr
}

// Obj is a versioned object value returned by reads.
type Obj struct {
	Data    []byte
	Version uint64
	Exists  bool
}

// StaleError reports that validation failed: some read-set object changed
// under the transaction. Refs identifies the stale objects when known (the
// caller uses this to invalidate its cache).
type StaleError struct {
	Refs []Ref
}

func (e *StaleError) Error() string {
	return fmt.Sprintf("dyntx: transaction aborted, %d stale object(s)", len(e.Refs))
}

// IsStale reports whether err is (or wraps) a StaleError.
func IsStale(err error) bool {
	var s *StaleError
	return errors.As(err, &s)
}

// ErrAborted is returned by operations on a transaction that has already
// aborted (for example, by a fence-key safety check).
var ErrAborted = errors.New("dyntx: transaction aborted")

// entry is one member of a transaction's read or write set. A read entry
// records the version observed and the replica it was observed at; a write
// entry uses ref and data only.
type entry struct {
	ref     Ref
	node    sinfonia.NodeID // replica the version was observed at
	version uint64
	data    []byte
	exists  bool
}

// comparableAt reports whether a minitransaction that runs at node alone can
// validate read entry e: replicated objects can be compared at any replica
// (versions move in lockstep), others only where they were read.
func (e *entry) comparableAt(node sinfonia.NodeID) bool {
	return e.ref.Replicated || e.node == node
}

// objSet is a read or write set: entries in first-access order, found by
// object identity. Most transactions touch a handful of objects (a get reads
// three), so lookups scan the slice and allocate nothing; the map index is
// built only when a set outgrows smallSet, so a 10k-key batch stays linear.
type objSet struct {
	order []entry
	idx   map[sinfonia.Ptr]int // position in order; nil while the set is small
}

const smallSet = 8

// find returns the entry for object k, or nil. The pointer is valid until the
// next add.
func (s *objSet) find(k sinfonia.Ptr) *entry {
	if s.idx != nil {
		if i, ok := s.idx[k]; ok {
			return &s.order[i]
		}
		return nil
	}
	for i := range s.order {
		if s.order[i].ref.key() == k {
			return &s.order[i]
		}
	}
	return nil
}

// add appends e, whose object must not be in the set yet.
func (s *objSet) add(e entry) {
	if s.order == nil {
		s.order = make([]entry, 0, 4)
	}
	s.order = append(s.order, e)
	switch {
	case s.idx != nil:
		s.idx[e.ref.key()] = len(s.order) - 1
	case len(s.order) > smallSet:
		s.idx = make(map[sinfonia.Ptr]int, 4*smallSet)
		for i := range s.order {
			s.idx[s.order[i].ref.key()] = i
		}
	}
}

// Txn is a dynamic transaction. Not safe for concurrent use.
type Txn struct {
	c *sinfonia.Client

	reads  objSet
	writes objSet

	// validated is true when the entire read set is known to have been
	// consistent at the moment of the last minitransaction (piggy-backed
	// validation, §2.2). A read-only transaction in this state commits
	// without any further network round trip.
	validated bool
	aborted   bool

	// Blocking selects blocking minitransactions for the commit (used by
	// snapshot creation to update the replicated tip id, §4.1).
	Blocking bool

	// Stats for the harness.
	Roundtrips int

	onDiscard []func()
}

// New begins a dynamic transaction coordinated by client c.
func New(c *sinfonia.Client) *Txn { return &Txn{c: c} }

// Abort marks the transaction aborted. No locks are held between
// minitransactions, so there is nothing to release.
func (t *Txn) Abort() { t.aborted = true }

// OnDiscard registers a callback to run if the transaction's effects are
// abandoned — the retry-loop owner calls Discard after a failed attempt.
// Used to return allocator blocks reserved for writes that never committed.
func (t *Txn) OnDiscard(fn func()) { t.onDiscard = append(t.onDiscard, fn) }

// Discard runs (and clears) the discard callbacks. Call only when the
// transaction definitively did not commit.
func (t *Txn) Discard() {
	for _, fn := range t.onDiscard {
		fn()
	}
	t.onDiscard = nil
}

// Aborted reports whether the transaction has aborted.
func (t *Txn) Aborted() bool { return t.aborted }

// ReadSetSize returns the number of objects that commit must validate.
func (t *Txn) ReadSetSize() int { return len(t.reads.order) }

// Held returns the image of ref that this attempt already holds, without
// any network traffic: its own pending write first, then the version its read
// set observed. It is the one rule by which every read below serves a ref the
// attempt holds, so a transaction observes its own writes and keeps acting on
// the image it will validate. A write-set hit reports Version 0; that value
// is inert, because InjectRead and WriteValidated add no compare for a held
// ref.
func (t *Txn) Held(ref Ref) (Obj, bool) {
	k := ref.key()
	if w := t.writes.find(k); w != nil {
		return Obj{Data: w.data, Exists: true}, true
	}
	if re := t.reads.find(k); re != nil {
		return Obj{Data: re.data, Version: re.version, Exists: re.exists}, true
	}
	return Obj{}, false
}

// Read reads refs transactionally and returns their images, parallel to
// refs: each object joins the read set and is validated at commit. A fetch
// that addresses one memnode piggy-backs validation of every read-set entry
// comparable there (replicated entries always are), so an up-to-date read
// set is known consistent with no further round trip.
func (t *Txn) Read(refs ...Ref) ([]Obj, error) { return t.fetch(refs, true) }

// DirtyRead fetches refs without adding them to the read set (§3).
func (t *Txn) DirtyRead(refs ...Ref) ([]Obj, error) { return t.fetch(refs, false) }

// fetchGroup is one memnode's minitransaction within a fetch.
type fetchGroup struct {
	m    *sinfonia.Minitx
	res  *sinfonia.Result
	next int // next of res.Reads to hand out, in ref order
}

// fetch is the one way an attempt reads. A ref the attempt holds is served
// by Held, and a ref named twice keeps its first observation. The rest go
// out as one minitransaction per memnode, run side by side when there are
// several (Client.ExecIndependent); each is its own linearization point,
// and commit-time validation of every observed version is what makes a
// read set gathered across memnodes atomic. With join set the fetched
// objects join the read set, and a fetch that addresses one memnode
// piggy-backs the compares of the read-set entries comparable there (§2.2);
// when those are all of them, the read set is validated as of that instant.
func (t *Txn) fetch(refs []Ref, join bool) ([]Obj, error) {
	if t.aborted {
		return nil, ErrAborted
	}
	out := make([]Obj, len(refs))
	// first[i] is -1 when the attempt holds refs[i], else the position of
	// the first fetched ref naming the same object (i itself when new).
	var firstBuf [4]int
	first := firstBuf[:0]
	var seen map[sinfonia.Ptr]int // first occurrences, once refs outgrow smallSet
	if len(refs) > smallSet {
		seen = make(map[sinfonia.Ptr]int, len(refs))
	}
	var groupBuf [2]fetchGroup
	groups := groupBuf[:0]
	for i, ref := range refs {
		if obj, ok := t.Held(ref); ok {
			out[i] = obj
			first = append(first, -1)
			continue
		}
		j := firstFetch(refs, first, seen, i)
		first = append(first, j)
		if j != i {
			continue
		}
		g := groupOf(groups, ref.Ptr.Node)
		if g == nil {
			m := &sinfonia.Minitx{Reads: make([]sinfonia.ReadItem, 0, len(refs)-i)}
			groups = append(groups, fetchGroup{m: m})
			g = &groups[len(groups)-1]
		}
		g.m.Reads = append(g.m.Reads, sinfonia.ReadItem{Node: ref.Ptr.Node, Addr: ref.Ptr.Addr})
	}
	if len(groups) == 0 {
		return out, nil
	}

	var err error
	covered := false // the compares cover the whole read set
	if len(groups) == 1 {
		g := &groups[0]
		node := g.m.Reads[0].Node
		if join {
			covered = t.addCompares(g.m, node)
		}
		if g.res, err = t.c.Exec(g.m); err != nil {
			err = t.asStale(err, func(e *entry) bool { return e.comparableAt(node) })
		}
	} else {
		ms := make([]*sinfonia.Minitx, len(groups))
		for k := range groups {
			ms[k] = groups[k].m
		}
		var res []*sinfonia.Result
		if res, err = t.c.ExecIndependent(ms); err == nil {
			for k := range groups {
				groups[k].res = res[k]
			}
		}
	}
	t.Roundtrips += len(groups)
	if err != nil {
		return nil, err
	}

	for i, ref := range refs {
		switch j := first[i]; {
		case j < 0:
		case j < i:
			out[i] = out[j]
		default:
			g := groupOf(groups, ref.Ptr.Node)
			r := g.res.Reads[g.next]
			g.next++
			out[i] = Obj{Data: r.Data, Version: r.Version, Exists: r.Exists}
			if join {
				t.reads.add(entry{ref: ref, node: ref.Ptr.Node, version: r.Version, data: r.Data, exists: r.Exists})
			}
		}
	}
	if join {
		t.validated = covered
	}
	return out, nil
}

// InjectRead adds an entry to the read set from a proxy-side cache without
// any network traffic — the paper's "adds its cached copy of the tip
// snapshot ... to the transaction's read set". The commit (or the next
// piggy-backed read) validates the cached version; if the cache was stale
// the transaction aborts with a StaleError naming ref. A held ref is left
// as it is: the attempt already acts on its own image of it.
func (t *Txn) InjectRead(ref Ref, version uint64, data []byte, exists bool) {
	if t.aborted {
		return
	}
	if _, held := t.Held(ref); held {
		return
	}
	t.reads.add(entry{ref: ref, node: ref.Ptr.Node, version: version, data: data, exists: exists})
	t.validated = false
}

// Write buffers a blind write: the object is updated at commit without
// validating a previously observed version. Use it for freshly allocated
// objects; use WriteValidated for objects observed via a dirty read.
func (t *Txn) Write(ref Ref, data []byte) {
	if t.aborted {
		return
	}
	if w := t.writes.find(ref.key()); w != nil {
		w.data = data
		return
	}
	t.writes.add(entry{ref: ref, data: data})
	t.validated = false
}

// WriteValidated buffers a write to an object that was previously observed
// (usually via DirtyRead) at the given version. Per the paper, "if the
// object is written later on, it will first be added to the read set": the
// commit will validate that the object still has that version. For a held
// ref it is a plain Write: a read ref is validated already, and a written
// one is either validated already or freshly allocated by this attempt.
func (t *Txn) WriteValidated(ref Ref, data []byte, observedVersion uint64) {
	if t.aborted {
		return
	}
	if _, held := t.Held(ref); !held {
		t.reads.add(entry{ref: ref, node: ref.Ptr.Node, version: observedVersion})
	}
	t.Write(ref, data)
}

// Commit validates the read set and applies the write set atomically.
// A read-only transaction whose read set was fully validated by its last
// (piggy-backed) minitransaction commits locally with no network traffic.
// Returns *StaleError when validation fails.
func (t *Txn) Commit() error {
	if t.aborted {
		return ErrAborted
	}
	t.aborted = true // a txn is single-shot: committed or aborted

	if len(t.writes.order) == 0 && (t.validated || len(t.reads.order) == 0) {
		return nil
	}

	m := &sinfonia.Minitx{Blocking: t.Blocking}

	// Choose the anchor node for replicated-object compares: a node the
	// minitransaction must visit anyway, so replication keeps the commit
	// single-node whenever possible.
	anchor := t.anchorNode()

	m.Compares = make([]sinfonia.CompareItem, 0, len(t.reads.order))
	for i := range t.reads.order {
		re := &t.reads.order[i]
		node := re.node
		if re.ref.Replicated {
			node = anchor
		}
		m.Compares = append(m.Compares, sinfonia.CompareItem{Node: node, Addr: re.ref.Ptr.Addr, Version: re.version})
	}
	m.Writes = make([]sinfonia.WriteItem, 0, len(t.writes.order))
	for i := range t.writes.order {
		w := &t.writes.order[i]
		if w.ref.Replicated {
			// Replicated objects are written on every memnode, atomically.
			for _, n := range t.c.Nodes() {
				m.Writes = append(m.Writes, sinfonia.WriteItem{Node: n, Addr: w.ref.Ptr.Addr, Data: w.data})
			}
		} else {
			m.Writes = append(m.Writes, sinfonia.WriteItem{Node: w.ref.Ptr.Node, Addr: w.ref.Ptr.Addr, Data: w.data})
		}
	}

	_, err := t.c.Exec(m)
	t.Roundtrips++
	if err != nil {
		return t.asStale(err, func(*entry) bool { return true })
	}
	return nil
}

// addCompares adds to m, which runs at node alone, a version compare for
// every read-set entry comparable there, in read-set order. It reports
// whether that is the whole read set; an entry left out is validated by
// Commit, since comparing it here would make the fetch two-phase.
func (t *Txn) addCompares(m *sinfonia.Minitx, node sinfonia.NodeID) bool {
	if len(t.reads.order) == 0 {
		return true
	}
	m.Compares = make([]sinfonia.CompareItem, 0, len(t.reads.order))
	for i := range t.reads.order {
		if re := &t.reads.order[i]; re.comparableAt(node) {
			m.Compares = append(m.Compares, sinfonia.CompareItem{Node: node, Addr: re.ref.Ptr.Addr, Version: re.version})
		}
	}
	return len(m.Compares) == len(t.reads.order)
}

// asStale turns a failed compare into a *StaleError that names the stale
// read-set entries and aborts the attempt; the minitransaction compared, in
// read-set order, the entries for which compared holds. Other errors pass
// through.
func (t *Txn) asStale(err error, compared func(*entry) bool) error {
	var cf *sinfonia.CompareFailedError
	if !errors.As(err, &cf) {
		return err
	}
	t.aborted = true
	var refs []Ref
	for i := range t.reads.order {
		if re := &t.reads.order[i]; compared(re) {
			refs = append(refs, re.ref)
		}
	}
	se := &StaleError{}
	for _, i := range cf.Failed {
		if i < len(refs) {
			se.Refs = append(se.Refs, refs[i])
		}
	}
	return se
}

// firstFetch returns the position of the first ref among refs[:i] that is
// fetched and names the same object as refs[i], or i if there is none.
// first holds the answers for refs[:i]; seen, when set, indexes them.
func firstFetch(refs []Ref, first []int, seen map[sinfonia.Ptr]int, i int) int {
	k := refs[i].key()
	if seen != nil {
		if j, ok := seen[k]; ok {
			return j
		}
		seen[k] = i
		return i
	}
	for j := 0; j < i; j++ {
		if first[j] == j && refs[j].key() == k {
			return j
		}
	}
	return i
}

// groupOf returns the fetch group for node, or nil.
func groupOf(groups []fetchGroup, node sinfonia.NodeID) *fetchGroup {
	for k := range groups {
		if groups[k].m.Reads[0].Node == node {
			return &groups[k]
		}
	}
	return nil
}

// anchorNode picks the memnode used to validate replicated objects.
func (t *Txn) anchorNode() sinfonia.NodeID {
	writes, reads := t.writes.order, t.reads.order
	for i := range writes {
		if !writes[i].ref.Replicated {
			return writes[i].ref.Ptr.Node
		}
	}
	for i := range reads {
		if !reads[i].ref.Replicated {
			return reads[i].node
		}
	}
	// Only replicated objects are involved; any node works. Prefer the
	// preferred replica of the first access.
	if len(writes) > 0 {
		return writes[0].ref.Ptr.Node
	}
	if len(reads) > 0 {
		return reads[0].ref.Ptr.Node
	}
	return t.c.Nodes()[0]
}

// RunOptions configures Run. The zero value is ready to use.
type RunOptions struct {
	// AfterAttempt, if set, runs after every attempt (counted from 0) with
	// its transaction and outcome, nil when it committed, before Run
	// discards the attempt or decides whether to retry it.
	AfterAttempt func(t *Txn, attempt int, err error)
}

// GiveUpError reports that Run spent its retry budget (sinfonia.RetryBudget
// of backoff) on attempts that all failed retryably. It counts them by
// cause, so Stale+Retry+Aborted == Attempts, and wraps the last one's error.
type GiveUpError struct {
	Attempts int
	Elapsed  time.Duration // since the first failed attempt
	Stale    int           // validation failures (*StaleError)
	Retry    int           // bodies that returned ErrRetry
	Aborted  int           // attempts that ended in ErrAborted
	Last     error
}

func (e *GiveUpError) Error() string {
	return fmt.Sprintf("dyntx: giving up after %d attempts in %v (stale %d, retry requested %d, aborted %d): %v",
		e.Attempts, e.Elapsed.Round(time.Millisecond), e.Stale, e.Retry, e.Aborted, e.Last)
}

func (e *GiveUpError) Unwrap() error { return e.Last }

// Run executes fn inside a dynamic transaction, New → fn → Commit, and is
// the one optimistic retry loop: an attempt that fails with a *StaleError,
// ErrRetry or ErrAborted is discarded and re-run after a wait on c's Backoff,
// and *GiveUpError reports the backoff's budget spent. Any other error is
// returned as is. fn must be idempotent.
//
// An attempt is discarded, which returns what it reserved, only when it
// provably did not apply: its body failed, or Commit reported a validation
// failure, ErrAborted or sinfonia.ErrTooBusy. Any other Commit error leaves
// the outcome in doubt — the minitransaction may have applied, and the
// committed tree may point at the blocks the attempt reserved — so Run
// returns it and keeps the reservations, leaking them rather than risk
// handing out a live block.
func Run(c *sinfonia.Client, opts RunOptions, fn func(t *Txn) error) error {
	b := c.Backoff()
	var stale, retry, aborted int
	for attempt := 0; ; attempt++ {
		t := New(c)
		bodyErr := fn(t)
		err := bodyErr
		if err == nil {
			err = t.Commit()
		}
		if opts.AfterAttempt != nil {
			opts.AfterAttempt(t, attempt, err)
		}
		if err == nil {
			return nil
		}
		if bodyErr == nil && !IsStale(err) && !errors.Is(err, ErrAborted) && !errors.Is(err, sinfonia.ErrTooBusy) {
			return err // in doubt: keep what the attempt reserved
		}
		t.Discard()
		switch {
		case IsStale(err):
			stale++
		case errors.Is(err, ErrRetry):
			retry++
		case errors.Is(err, ErrAborted):
			aborted++
		default:
			return err
		}
		if !b.Wait() {
			return &GiveUpError{Attempts: attempt + 1, Elapsed: b.Elapsed(),
				Stale: stale, Retry: retry, Aborted: aborted, Last: err}
		}
	}
}

// ErrRetry is returned by transaction bodies that detected an inconsistency
// (for example, a fence-key violation during a dirty traversal) and want the
// optimistic retry loop to re-execute them.
var ErrRetry = errors.New("dyntx: retry requested")
