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

// Read performs a transactional read: the object is added to the read set
// and will be validated at commit. A held ref is served by Held; otherwise a
// minitransaction fetches the object and piggy-backs validation of any
// read-set entries that can be compared on the same memnode (replicated
// entries always can).
func (t *Txn) Read(ref Ref) (Obj, error) {
	if t.aborted {
		return Obj{}, ErrAborted
	}
	if obj, ok := t.Held(ref); ok {
		return obj, nil
	}
	obj, err := t.fetch(ref, true)
	if err != nil {
		return Obj{}, err
	}
	t.reads.add(entry{ref: ref, node: ref.Ptr.Node, version: obj.Version, data: obj.Data, exists: obj.Exists})
	return obj, nil
}

// fetch reads the object via a minitransaction. With validate set (the
// object is about to join the read set) validation of the existing read set
// is piggy-backed where possible.
func (t *Txn) fetch(ref Ref, validate bool) (Obj, error) {
	node := ref.Ptr.Node
	m := &sinfonia.Minitx{
		Reads: []sinfonia.ReadItem{{Node: node, Addr: ref.Ptr.Addr}},
	}
	allCovered := true
	if validate && len(t.reads.order) > 0 {
		m.Compares = make([]sinfonia.CompareItem, 0, len(t.reads.order))
		for i := range t.reads.order {
			re := &t.reads.order[i]
			if !re.comparableAt(node) {
				allCovered = false
				continue // would force a 2-phase commit; let Commit validate it
			}
			m.Compares = append(m.Compares, sinfonia.CompareItem{
				Node: node, Addr: re.ref.Ptr.Addr,
				Kind: sinfonia.CompareVersion, Version: re.version,
			})
		}
	}

	res, err := t.c.Exec(m)
	t.Roundtrips++
	if err != nil {
		var cf *sinfonia.CompareFailedError
		if errors.As(err, &cf) {
			t.aborted = true
			// Compare i belongs to the i-th read entry comparable at node.
			var compared []Ref
			for i := range t.reads.order {
				if re := &t.reads.order[i]; re.comparableAt(node) {
					compared = append(compared, re.ref)
				}
			}
			se := &StaleError{}
			for _, i := range cf.Failed {
				se.Refs = append(se.Refs, compared[i])
			}
			return Obj{}, se
		}
		return Obj{}, err
	}
	if validate {
		// The read set was consistent at this instant iff every prior
		// entry was compared in the same minitransaction.
		t.validated = allCovered
	}
	r := res.Reads[0]
	return Obj{Data: r.Data, Version: r.Version, Exists: r.Exists}, nil
}

// DirtyRead fetches an object without adding it to the read set (§3). A held
// ref is served by Held at no cost.
func (t *Txn) DirtyRead(ref Ref) (Obj, error) {
	if t.aborted {
		return Obj{}, ErrAborted
	}
	if obj, ok := t.Held(ref); ok {
		return obj, nil
	}
	return t.fetch(ref, false)
}

// DirtyReadMany fetches several objects on the same memnode in a single
// minitransaction, without touching the read set. Used by the legacy
// traversal mode to fetch a node image together with its replicated
// sequence-number entry in one round trip. Like DirtyRead, held refs are
// served by Held.
func (t *Txn) DirtyReadMany(refs []Ref) ([]Obj, error) {
	if t.aborted {
		return nil, ErrAborted
	}
	out := make([]Obj, len(refs))
	m := &sinfonia.Minitx{}
	fetchIdx := make([]int, 0, len(refs))
	for i, r := range refs {
		if obj, ok := t.Held(r); ok {
			out[i] = obj
			continue
		}
		fetchIdx = append(fetchIdx, i)
		m.Reads = append(m.Reads, sinfonia.ReadItem{Node: r.Ptr.Node, Addr: r.Ptr.Addr})
	}
	if len(m.Reads) == 0 {
		return out, nil
	}
	res, err := t.c.Exec(m)
	t.Roundtrips++
	if err != nil {
		return nil, err
	}
	for j, r := range res.Reads {
		out[fetchIdx[j]] = Obj{Data: r.Data, Version: r.Version, Exists: r.Exists}
	}
	return out, nil
}

// ReadBatch performs transactional reads of many objects at once: refs are
// grouped by memnode, fetched with one minitransaction per memnode executed
// concurrently (Client.ExecIndependent), and every fetched object joins the
// read set for commit-time validation. The per-node minitransactions are
// separate linearization points — the commit's validation of every observed
// version is what makes the whole set atomic, exactly as for single reads.
//
// Held refs are served by Held (and not refetched), so ReadBatch is also safe
// to use as a prefetch. Results are parallel to refs.
func (t *Txn) ReadBatch(refs []Ref) ([]Obj, error) {
	if t.aborted {
		return nil, ErrAborted
	}
	out := make([]Obj, len(refs))
	byNode := make(map[sinfonia.NodeID]*sinfonia.Minitx)
	var nodeOrder []sinfonia.NodeID
	type fetchPos struct {
		node sinfonia.NodeID
		idx  int // position within the node's Reads
	}
	fetches := make(map[int]fetchPos) // refs index -> where its read went
	for i, ref := range refs {
		if obj, ok := t.Held(ref); ok {
			out[i] = obj
			continue
		}
		node := ref.Ptr.Node
		m := byNode[node]
		if m == nil {
			m = &sinfonia.Minitx{}
			byNode[node] = m
			nodeOrder = append(nodeOrder, node)
		}
		fetches[i] = fetchPos{node: node, idx: len(m.Reads)}
		m.Reads = append(m.Reads, sinfonia.ReadItem{Node: node, Addr: ref.Ptr.Addr})
	}
	if len(nodeOrder) == 0 {
		return out, nil
	}
	ms := make([]*sinfonia.Minitx, len(nodeOrder))
	for i, n := range nodeOrder {
		ms[i] = byNode[n]
	}
	results, err := t.c.ExecIndependent(ms)
	t.Roundtrips += len(ms)
	if err != nil {
		return nil, err
	}
	byNodeRes := make(map[sinfonia.NodeID]*sinfonia.Result, len(nodeOrder))
	for i, n := range nodeOrder {
		byNodeRes[n] = results[i]
	}
	for i, ref := range refs {
		pos, ok := fetches[i]
		if !ok {
			continue
		}
		r := byNodeRes[pos.node].Reads[pos.idx]
		if obj, ok := t.Held(ref); ok {
			// Duplicate ref within the batch: keep the first observation.
			out[i] = obj
			continue
		}
		t.reads.add(entry{ref: ref, node: ref.Ptr.Node, version: r.Version, data: r.Data, exists: r.Exists})
		out[i] = Obj{Data: r.Data, Version: r.Version, Exists: r.Exists}
	}
	t.validated = false
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
		m.Compares = append(m.Compares, sinfonia.CompareItem{
			Node: node, Addr: re.ref.Ptr.Addr,
			Kind: sinfonia.CompareVersion, Version: re.version,
		})
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
		var cf *sinfonia.CompareFailedError
		if errors.As(err, &cf) {
			se := &StaleError{}
			for _, i := range cf.Failed {
				if i < len(t.reads.order) {
					se.Refs = append(se.Refs, t.reads.order[i].ref)
				}
			}
			return se
		}
		return err
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
// and *GiveUpError reports the backoff's budget spent. Any other error
// discards the attempt and is returned as is. fn must be idempotent.
func Run(c *sinfonia.Client, opts RunOptions, fn func(t *Txn) error) error {
	b := c.Backoff()
	var stale, retry, aborted int
	for attempt := 0; ; attempt++ {
		t := New(c)
		err := fn(t)
		if err == nil {
			err = t.Commit()
		}
		if opts.AfterAttempt != nil {
			opts.AfterAttempt(t, attempt, err)
		}
		if err == nil {
			return nil
		}
		// The attempt did not commit: return whatever it reserved.
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
